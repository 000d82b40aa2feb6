import random
import sys
from collections import Counter

import pytest

from fwpp import diophantine, lattice
from fwpp.fwps import mutate_weights
from fwpp.lattice import LatticeError, make_fano_triangle


def random_fano_triangles(count, bound=12, seed=20250823):
    """Deterministic corpus of random Fano triangles via rejection sampling."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pts = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
               for _ in range(3)]
        try:
            out.append(make_fano_triangle(*pts))
        except LatticeError:
            continue
    return out


@pytest.fixture(autouse=True)
def fresh_equation_memo():
    """Every test starts with no root equations memoised, so that its spies
    and timings do not depend on the roots an earlier test derived."""
    diophantine._root_equation.cache_clear()


@pytest.fixture(scope="session")
def corpus():
    return random_fano_triangles(220)


@pytest.fixture(scope="session")
def small_corpus():
    return random_fano_triangles(40, bound=6, seed=7)


@pytest.fixture(scope="session")
def max_growth_branch():
    """The 18 steps of the max-growth Markov branch (1,1,1), (1,1,4),
    (1,4,25), ...; the last triple has 2009, 3251 and 5261 digits, past
    Python's 4300-digit int/str limit."""
    path = [(1, 1, 1)]
    for _ in range(18):
        path.append(mutate_weights(path[-1], 0))
    return path


@pytest.fixture
def without_digit_limit():
    """call(f) runs f() with Python's int/str digit limit lifted, so that
    tests can spell the expected text of huge integers with str() and
    repr()."""
    def call(f):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return f()
        finally:
            sys.set_int_max_str_digits(limit)
    return call


@pytest.fixture
def reads(monkeypatch):
    """Counts of the calls of lattice._check_fano_hull and of
    lattice.convex_hull, the two steps of reading a bare list. mutate_with
    hulls its output through mutation's own name for convex_hull, which is
    not counted."""
    counts = Counter()
    for name in ("_check_fano_hull", "convex_hull"):
        def counted(*args, _real=getattr(lattice, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(lattice, name, counted)
    return counts
