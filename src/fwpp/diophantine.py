"""Markov-type Diophantine equations attached to weight triples.

Square-free decompositions, equation derivation, solution mutation, the
height order on weights, descent to minimal weights, and mutation trees
with DOT/JSON export.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import index

from .fwps import (_OTHERS, _pivot, _positive_weights, _step, _triple,
                   _well_formed_weights, is_well_formed)
from .lattice import format_ints, int_to_decimal

# Trial divisors of square_free_decompose. A cofactor free of them and below
# _TRIAL_LIMIT**3 has at most two prime factors, so an isqrt settles it.
_TRIAL_LIMIT = 1000


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _primes_below(_TRIAL_LIMIT)


class NonIntegral(ValueError):
    """The solution transformation leaves the positive integers, so there is
    no weight-level mutation at this pivot."""


# n == c * a**2 with c square-free
SquareFreeDecomposition = namedtuple("SquareFreeDecomposition", "c a")


class DiophantineEquation(namedtuple("DiophantineEquation", "m k c r")):
    """m x0 x1 x2 = k (c0 x0^2 + c1 x1^2 + c2 x2^2), with square-free r such
    that m^2 / (r k^2) is the degree of the generating weighted plane."""

    __slots__ = ()

    def __str__(self) -> str:
        def term(ci, i):
            return f"{int_to_decimal(ci)}*x{i}^2" if ci != 1 else f"x{i}^2"

        rhs = " + ".join(term(ci, i) for i, ci in enumerate(self.c))
        lhs = f"{int_to_decimal(self.m)}*x0*x1*x2" if self.m != 1 else "x0*x1*x2"
        if self.k != 1:
            rhs = f"{int_to_decimal(self.k)}*({rhs})"
        return f"{lhs} = {rhs}"


GeneralDerivation = namedtuple("GeneralDerivation", "d S T g")
GeneralDerivation.__doc__ = """Bookkeeping of the general (not necessarily
well-formed) derivation; d = S = T = 1 for well-formed weights and g is
square-free."""


def square_free_decompose(n: int) -> SquareFreeDecomposition:
    """Unique (c, a) with n = c * a^2 and c square-free.

    Trial division by the primes below _TRIAL_LIMIT settles every n whose
    cofactor is below _TRIAL_LIMIT**3; only a larger cofactor is handed to
    sympy, which is imported here because its import costs more than the
    rest of fwpp.
    """
    n = index(n)
    if n < 1:
        raise ValueError("n must be positive")
    c = a = 1
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            c *= p
        a *= p ** (e // 2)
    if m >= _TRIAL_LIMIT**3:
        from sympy import factorint

        factors = factorint(m)
    else:
        # m is 1, a prime, or p*q or p^2 with primes p, q above the limit.
        s = isqrt(m)
        factors = {s: 2} if s * s == m else {m: 1}
    for p, e in factors.items():
        if e % 2:
            c *= p
        a *= p ** (e // 2)
    return SquareFreeDecomposition(c=c, a=a)


def _derive_direct(lams):
    """derive_equation by factoring the weights themselves."""
    d = gcd(gcd(lams[0], lams[1]), lams[2])
    decs = [square_free_decompose(l // d) for l in lams]
    c = tuple(dec.c for dec in decs)
    a = tuple(dec.a for dec in decs)

    q = Fraction(sum(lams) ** 2, lams[0] * lams[1] * lams[2])
    num = square_free_decompose(q.numerator)
    den = square_free_decompose(q.denominator)
    m, k, r = num.a * num.c, den.a, num.c * den.c

    prod_c = square_free_decompose(c[0] * c[1] * c[2])
    dr = square_free_decompose(d * r)
    assert prod_c.c == dr.c  # the lemma's square-free parts agree
    derivation = GeneralDerivation(d=d, S=prod_c.a, T=dr.a, g=prod_c.c)

    eq = DiophantineEquation(m=m, k=k, c=c, r=r)
    solution = tuple(d * ai for ai in a)
    return eq, solution, derivation


def _square_class(lam: int, parts) -> tuple[int, int]:
    """(c, s) with c among the square-free parts and lam = c * s^2."""
    for c in parts:
        q, r = divmod(lam, c)
        if not r and (s := isqrt(q)) * s == q:
            return c, s
    raise AssertionError(f"{lam} has none of the square-free parts {parts}")


def derive_equation(weights):
    """Equation, solution, and derivation data for a positive weight triple.

    The order of the input weights is preserved in the coefficients c_i and
    in the solution, so callers can keep the labelling of their plane.

    Of well-formed weights only the minimal weights of the component are
    factored. The equation is an invariant of the component: the degree is,
    and a mutation lambda_p -> lambda_p' keeps the square-free part, since
    lambda_p * lambda_p' = (lambda_i + lambda_j)^2. So the square-free
    parts c0, c1, c2 come from the minimal weights, and each input weight
    takes the one part that leaves a square quotient. Well-formed weights
    are pairwise coprime, so d = 1, r = c0 c1 c2 is square-free (S = T = 1,
    g = r), and with the minimal weights' height h and square roots a0, a1,
    a2, m / k = h / (a0 a1 a2) in lowest terms. Weights that are not
    well-formed are factored as they are, with their height and degree.
    """
    lams = _positive_weights(weights)
    if not is_well_formed(lams):
        return _derive_direct(lams)
    root = descend_to_minimal(lams)[-1]
    decs = [square_free_decompose(l) for l in root]
    parts = tuple(dec.c for dec in decs)
    h, a = sum(root), decs[0].a * decs[1].a * decs[2].a
    g = gcd(h, a)
    r = parts[0] * parts[1] * parts[2]
    c, solution = zip(*(_square_class(l, parts) for l in lams))
    eq = DiophantineEquation(m=h // g, k=a // g, c=c, r=r)
    return eq, solution, GeneralDerivation(d=1, S=1, T=1, g=r)


def _solution(s) -> tuple[int, int, int]:
    return _triple(s, "a solution of three integers")


def verify_solution(eq: DiophantineEquation, s) -> bool:
    x0, x1, x2 = _solution(s)
    c0, c1, c2 = eq.c
    return eq.m * x0 * x1 * x2 == eq.k * (c0 * x0**2 + c1 * x1**2 + c2 * x2**2)


def mutate_solution(eq: DiophantineEquation, s, pivot: int):
    """(a0,a1,a2) -> ((m/k) ai aj / cp - ap, ...) at the pivot index;
    raises NonIntegral when the image is not a positive integer."""
    s = _solution(s)
    pivot = _pivot(pivot)
    ai, aj = (s[i] for i in range(3) if i != pivot)
    num, den = eq.m * ai * aj, eq.k * eq.c[pivot]
    q, r = divmod(num, den)
    new = q - s[pivot]
    if r or new <= 0:
        raise NonIntegral(f"pivot {pivot} transform of {format_ints(s)} gives "
                          f"{format_ints(Fraction(num, den) - s[pivot])}, "
                          "not a positive integer")
    out = list(s)
    out[pivot] = new
    return tuple(out)


def slice_roots(eq: DiophantineEquation, x1: int, x2: int):
    """The integer roots x0 <= x0' (a double root twice) of the equation at
    fixed (x1, x2), k c0 x0^2 - m x1 x2 x0 + k (c1 x1^2 + c2 x2^2) = 0, from
    one isqrt, or None. Unless k c0 divides m x1 x2, one may come alone."""
    x1, x2 = index(x1), index(x2)
    c0, c1, c2 = eq.c
    a, b = eq.k * c0, eq.m * x1 * x2
    disc = b * b - 4 * a * eq.k * (c1 * x1 * x1 + c2 * x2 * x2)
    if disc < 0 or (s := isqrt(disc)) * s != disc:
        return None
    roots = [q for q, r in (divmod(b - s, 2 * a), divmod(b + s, 2 * a)) if not r]
    return tuple(roots) or None


def minimal_solutions(eq: DiophantineEquation, bound: int):
    """The coprime solutions with every entry in 1..bound that no mutation
    lowers, in (x1, x2) order, then by x0. By Vieta x_p' = m x_i x_j /
    (k c_p) - x_p and c_p x_p x_p' = c_i x_i^2 + c_j x_j^2, so a mutation
    lowers the weights c_i x_i^2 only at the pivot p of the largest, and
    there iff the other two sum below it and k c_p divides m x_i x_j. This
    holds for any positive m, k and c, which also make both roots of a
    slice positive."""
    bound = index(bound)
    m, k, c = eq.m, eq.k, eq.c
    sols = []
    for x1 in range(1, bound + 1):
        for x2 in range(1, bound + 1):
            for x0 in dict.fromkeys(slice_roots(eq, x1, x2) or ()):
                if x0 > bound or gcd(gcd(x0, x1), x2) != 1:
                    continue
                s = (x0, x1, x2)
                w = [ci * x * x for ci, x in zip(c, s)]
                p = w.index(max(w))
                i, j = _OTHERS[p]
                if w[i] + w[j] >= w[p] or m * s[i] * s[j] % (k * c[p]):
                    sols.append(s)
    return sols


def height(weights) -> int:
    """Height of a weight triple: the sum of the weights."""
    return sum(_triple(weights))


def descend_to_minimal(weights):
    """Path of weight triples from the input down to the minimal weights of
    its mutation component (heights strictly decreasing).

    Mutating at pivot p lowers the height iff lambda_p' < lambda_p, that is
    iff li + lj < lp, which in a sorted triple can only hold at p = 2 (the
    descent lemma). Mutation keeps weights well-formed, so only the input
    is checked.
    """
    w = _well_formed_weights(weights)
    path = [w]
    while w[0] + w[1] < w[2]:
        w = _step(w, 2)
        if w is None:
            break
        path.append(w)
    return path


class TreeNode(namedtuple("TreeNode", "weights depth parent pivot truncated",
                          defaults=(None, None, False))):
    """One node of a MutationTree. Only what cannot be recomputed is
    stored: the height is the sum of the weights, and the children of node
    k are the nodes whose parent is k, in index order. pivot is the pivot
    in the parent's sorted triple."""

    __slots__ = ()

    @property
    def height(self) -> int:
        return sum(self.weights)


class MutationTree(namedtuple("MutationTree", "nodes")):
    """Directed tree of weight triples ordered by height, rooted at the
    minimal weights of the component; nodes is a list of TreeNode, root
    first."""

    __slots__ = ()

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def weight_set(self):
        return {n.weights for n in self.nodes}


def _vieta_step(w, pivot, num, den):
    """fwps._step in Vieta form, for a triple of degree num/den (in lowest
    terms): lambda_p and lambda_p' are the two roots of the Markov-type
    equation in lambda_p, so lambda_p' = K li lj - 2(li + lj) - lambda_p.
    The target exists iff den divides li lj, which is iff lambda_p divides
    (li + lj)^2, since their product is (li + lj)^2.

    One product and no big division; but reading K off a single triple
    costs a big gcd, so the one-step callers keep fwps._step.
    """
    i, j = _OTHERS[pivot]
    li, lj = w[i], w[j]
    prod = li * lj
    if den != 1:
        prod, r = divmod(prod, den)
        if r:
            return None
    q = num * prod - 2 * (li + lj) - w[pivot]
    if q <= li:
        return (q, li, lj)
    return (li, q, lj) if q <= lj else (li, lj, q)


def _bound(name, value):
    """The one reader of a tree bound: None, or a nonnegative integer read
    with operator.index."""
    if value is not None and (value := index(value)) < 0:
        raise ValueError(f"{name} {format_ints(value)} is negative")
    return value


def build_mutation_tree(weights, max_depth=None, max_height=None) -> MutationTree:
    """Descend to the minimal root, then expand all height-increasing weight
    mutations breadth-first until a bound is hit. A node is truncated when
    it sits at max_depth or drops a child above max_height.

    The degree K = h^2 / (l0 l1 l2) is the same on the whole component, so
    it is read once off the root and each child is a Vieta step
    (_vieta_step). No set of visited triples is kept: by the descent
    lemma, a non-root node has exactly one height-decreasing neighbour,
    its parent, so the height-increasing search reaches no node twice.
    Pivots of one node that give the same triple, as at (1, 1, b), are
    merged into one child. Each edge is stored once, as the child's
    parent index. A max_height below the height of the root raises
    ValueError, so that no node exceeds the bound.
    """
    max_depth = _bound("max_depth", max_depth)
    max_height = _bound("max_height", max_height)
    if max_depth is None and max_height is None:
        raise ValueError("need max_depth and/or max_height")
    root_w = descend_to_minimal(weights)[-1]
    root_h = sum(root_w)
    if max_height is not None and max_height < root_h:
        raise ValueError(f"max_height {format_ints(max_height)} is below the"
                         f" height {format_ints(root_h)} of the minimal"
                         f" weights {format_ints(root_w)}")
    deg = Fraction(root_h * root_h, root_w[0] * root_w[1] * root_w[2])
    num, den = deg.numerator, deg.denominator
    nodes = [TreeNode(root_w, 0, truncated=max_depth == 0)]
    queue = deque([] if max_depth == 0 else [0])
    while queue:
        idx = queue.popleft()
        node = nodes[idx]
        # Pivot p raises the height iff li + lj > lp, i.e. 2 lp < height;
        # the root is well-formed and mutation keeps it so.
        w = node.weights
        h = sum(w)
        targets = {}
        for pivot in range(3):
            if 2 * w[pivot] < h and (
                    target := _vieta_step(w, pivot, num, den)) is not None:
                targets.setdefault(target, pivot)
        depth = node.depth + 1
        leaf = depth == max_depth
        for target in sorted(targets):
            if max_height is not None and sum(target) > max_height:
                if not node.truncated:
                    nodes[idx] = node = node._replace(truncated=True)
                continue
            nodes.append(TreeNode(target, depth, idx, targets[target], leaf))
            if not leaf:
                queue.append(len(nodes) - 1)
    return MutationTree(nodes=nodes)


def _weight_decimals():
    """int_to_decimal for the weights of one tree, each distinct weight
    converted once, although a child repeats two of its parent's."""
    return lru_cache(maxsize=None)(int_to_decimal)


def _tree_json_chunks(tree: MutationTree, quoted: bool = False):
    """The nodes document of the tree, as json.dumps(..., sort_keys=True,
    indent=2) writes it, as one tuple of string pieces per node plus a
    closing tuple; joining every piece gives the document.

    The pieces are shared fixed fragments and decimal strings, so the
    document is built in one copy. depth, parent and pivot are JSON ints,
    or decimal strings when quoted.
    """
    dec = _weight_decimals()

    def small(v):
        if v is None:
            return "null"
        return f'"{v}"' if quoted else str(v)

    head = '{\n  "nodes": [\n    {\n      "depth": '
    for n in tree.nodes:
        a, b, c = n.weights
        yield (
            head, small(n.depth),
            ',\n      "height": "', int_to_decimal(n.height),
            '",\n      "parent": ', small(n.parent),
            ',\n      "pivot": ', small(n.pivot),
            ',\n      "truncated": ', "true" if n.truncated else "false",
            ',\n      "weights": [\n        "', dec(a),
            '",\n        "', dec(b),
            '",\n        "', dec(c),
            '"\n      ]\n    }',
        )
        head = ',\n    {\n      "depth": '
    yield ("\n  ]\n}",)


def tree_to_json(tree: MutationTree) -> str:
    return "".join([p for pieces in _tree_json_chunks(tree) for p in pieces])


def tree_to_dot(tree: MutationTree) -> str:
    """The tree as a Graphviz digraph: one labelled vertex per node, then
    one edge per non-root node, from its parent, in node order.

    Breadth-first numbering gives each node's children consecutive indices
    and expands parents in index order, so the edges come out grouped by
    parent, each group in the order the children were found.
    """
    dec = _weight_decimals()
    lines = ["digraph mutations {"]
    for i, n in enumerate(tree.nodes):
        label = ",".join(map(dec, n.weights)) + f" (h={int_to_decimal(n.height)})"
        shape = ' style=dashed' if n.truncated else ""
        lines.append(f'  n{i} [label="{label}"{shape}];')
    for i, n in enumerate(tree.nodes):
        if n.parent is not None:
            lines.append(f'  n{n.parent} -> n{i} [label="{n.pivot}"];')
    lines.append("}")
    return "\n".join(lines)
