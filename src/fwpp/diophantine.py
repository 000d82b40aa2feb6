"""Markov-type Diophantine equations attached to weight triples.

Square-free decompositions, equation derivation, solution mutation, the
height order on weights, descent to minimal weights, and mutation trees
with DOT/JSON export.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import index

from .fwps import _OTHERS, _step, _triple, _well_formed_weights, is_well_formed
from .lattice import format_ints, int_to_decimal

# Trial divisors of square_free_decompose. A cofactor free of them and below
# _TRIAL_LIMIT**3 has at most two prime factors, so an isqrt settles it.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_LIMIT) if all(p % q for q in range(2, isqrt(p) + 1))
)


class NonIntegral(ValueError):
    """The solution transformation leaves the positive integers, so there is
    no weight-level mutation at this pivot."""


@dataclass(frozen=True)
class SquareFreeDecomposition:
    c: int  # square-free part
    a: int  # n == c * a**2


@dataclass(frozen=True)
class DiophantineEquation:
    """m x0 x1 x2 = k (c0 x0^2 + c1 x1^2 + c2 x2^2), with square-free r such
    that m^2 / (r k^2) is the degree of the generating weighted plane."""

    m: int
    k: int
    c: tuple[int, int, int]
    r: int

    def __str__(self) -> str:
        def term(ci, i):
            return f"{int_to_decimal(ci)}*x{i}^2" if ci != 1 else f"x{i}^2"

        rhs = " + ".join(term(ci, i) for i, ci in enumerate(self.c))
        lhs = f"{int_to_decimal(self.m)}*x0*x1*x2" if self.m != 1 else "x0*x1*x2"
        if self.k != 1:
            rhs = f"{int_to_decimal(self.k)}*({rhs})"
        return f"{lhs} = {rhs}"


@dataclass(frozen=True)
class GeneralDerivation:
    """Bookkeeping of the general (not necessarily well-formed) derivation;
    d = S = T = 1 for well-formed weights and g is square-free."""

    d: int
    S: int
    T: int
    g: int


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
    lams = tuple(index(x) for x in weights)
    if len(lams) != 3 or min(lams) < 1:
        raise ValueError(f"need three positive weights, got {format_ints(lams)}")
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
    if pivot not in (0, 1, 2):
        raise ValueError(f"pivot must be 0, 1 or 2, got {pivot!r}")
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


@dataclass(slots=True)
class TreeNode:
    """One node of a MutationTree. Only what cannot be recomputed is
    stored: the height is the sum of the weights, and the children of node
    k are the nodes whose parent is k, in index order."""

    weights: tuple[int, int, int]
    depth: int
    parent: int | None = None
    pivot: int | None = None  # pivot in the parent's sorted triple
    truncated: bool = False

    @property
    def height(self) -> int:
        return sum(self.weights)


@dataclass
class MutationTree:
    """Directed tree of weight triples ordered by height, rooted at the
    minimal weights of the component."""

    nodes: list[TreeNode]

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


def build_mutation_tree(weights, max_depth=None, max_height=None) -> MutationTree:
    """Descend to the minimal root, then expand all height-increasing weight
    mutations breadth-first until a bound is hit (truncated nodes flagged).

    The degree K = h^2 / (l0 l1 l2) is the same on the whole component, so
    it is read once off the root and each child is a Vieta step
    (_vieta_step). No set of visited triples is kept: by the descent
    lemma, a non-root node has exactly one height-decreasing neighbour,
    its parent, so the height-increasing search reaches no node twice.
    Pivots of one node that give the same triple, as at (1, 1, b), are
    merged into one child. Each edge is stored once, as the child's
    parent index.
    """
    if max_depth is not None:
        max_depth = index(max_depth)
    if max_height is not None:
        max_height = index(max_height)
    if max_depth is None and max_height is None:
        raise ValueError("need max_depth and/or max_height")
    root_w = descend_to_minimal(weights)[-1]
    root_h = sum(root_w)
    deg = Fraction(root_h * root_h, root_w[0] * root_w[1] * root_w[2])
    num, den = deg.numerator, deg.denominator
    nodes = [TreeNode(weights=root_w, depth=0)]
    queue = deque([0])
    while queue:
        idx = queue.popleft()
        node = nodes[idx]
        if max_depth is not None and node.depth >= max_depth:
            node.truncated = True
            continue
        # Pivot p raises the height iff li + lj > lp, i.e. 2 lp < height;
        # the root is well-formed and mutation keeps it so.
        w = node.weights
        h = sum(w)
        targets = {}
        for pivot in range(3):
            if 2 * w[pivot] < h and (
                    target := _vieta_step(w, pivot, num, den)) is not None:
                targets.setdefault(target, pivot)
        for target in sorted(targets):
            if max_height is not None and sum(target) > max_height:
                node.truncated = True
                continue
            nodes.append(TreeNode(
                weights=target,
                depth=node.depth + 1,
                parent=idx,
                pivot=targets[target],
            ))
            queue.append(len(nodes) - 1)
    return MutationTree(nodes=nodes)


def _tree_json_chunks(tree: MutationTree, quoted: bool = False):
    """The nodes document of the tree, as json.dumps(..., sort_keys=True,
    indent=2) writes it, as one tuple of string pieces per node plus a
    closing tuple; joining every piece gives the document.

    The pieces are shared fixed fragments and decimal strings, so the
    document is built in one copy. Each distinct weight is converted once,
    although a child repeats two of its parent's. depth, parent and pivot
    are JSON ints, or decimal strings when quoted.
    """
    decimals = {}

    def dec(x):
        text = decimals.get(x)
        if text is None:
            text = decimals[x] = int_to_decimal(x)
        return text

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
    lines = ["digraph mutations {"]
    for i, n in enumerate(tree.nodes):
        label = (",".join(int_to_decimal(x) for x in n.weights)
                 + f" (h={int_to_decimal(n.height)})")
        shape = ' style=dashed' if n.truncated else ""
        lines.append(f'  n{i} [label="{label}"{shape}];')
    for i, n in enumerate(tree.nodes):
        if n.parent is not None:
            lines.append(f'  n{n.parent} -> n{i} [label="{n.pivot}"];')
    lines.append("}")
    return "\n".join(lines)
