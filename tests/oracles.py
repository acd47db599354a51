"""Independent brute-force oracles used to pin expected values in the tests.

Nothing in here is imported by the package itself.  Each oracle recomputes a
quantity from first principles (Euclidean root coordinates, raw word
enumeration, power-series division) so that the package's own code paths are
checked against something they do not share.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction as Q
from functools import partial, reduce
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd, lcm
from operator import mul


class Poly:
    """Multivariate polynomial for the Fraction oracles: exponent tuple ->
    nonzero coefficient, kept as given, from a dict or from the (exponent
    tuple, coefficient) pairs of an ``Ideal`` generator or a
    ``groebner_basis`` element; the zero polynomial has no terms.  The
    package itself holds polynomials as plain term data."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {tuple(exps): c for exps, c in dict(terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def total_degrees(self) -> set[int]:
        return {sum(e) for e in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.total_degrees()) <= 1


def generator_polys(ideal) -> list[Poly]:
    """The generators of an ``Ideal`` as ``Poly``s."""
    return [Poly(ideal.nvars, g) for g in ideal.generators]


def _e(i: int, dim: int) -> tuple[Q, ...]:
    v = [Q(0)] * dim
    v[i] = Q(1)
    return tuple(v)


def _add(*vs):
    return tuple(sum(col) for col in zip(*vs))


def _scale(c, v):
    c = Q(c)
    return tuple(c * x for x in v)


def euclidean_simple_roots(family: str, rank: int) -> list[tuple[Q, ...]]:
    """Simple roots as exact vectors, in the standard textbook node order.

    The ambient dimension varies per family; only inner products matter.
    """
    n = rank
    if family == "A":
        dim = n + 1
        return [_add(_e(i, dim), _scale(-1, _e(i + 1, dim))) for i in range(n)]
    if family == "B":
        roots = [_add(_e(i, n), _scale(-1, _e(i + 1, n))) for i in range(n - 1)]
        roots.append(_e(n - 1, n))
        return roots
    if family == "C":
        roots = [_add(_e(i, n), _scale(-1, _e(i + 1, n))) for i in range(n - 1)]
        roots.append(_scale(2, _e(n - 1, n)))
        return roots
    if family == "D":
        roots = [_add(_e(i, n), _scale(-1, _e(i + 1, n))) for i in range(n - 1)]
        roots.append(_add(_e(n - 2, n), _e(n - 1, n)))
        return roots
    if family == "E":
        # Build inside R^8 (the rank-8 system restricts to the first 6 or 7
        # nodes for the smaller ranks).
        a1 = _add(
            _scale(Q(1, 2), _e(0, 8)),
            _scale(Q(-1, 2), _e(1, 8)),
            _scale(Q(-1, 2), _e(2, 8)),
            _scale(Q(-1, 2), _e(3, 8)),
            _scale(Q(-1, 2), _e(4, 8)),
            _scale(Q(-1, 2), _e(5, 8)),
            _scale(Q(-1, 2), _e(6, 8)),
            _scale(Q(1, 2), _e(7, 8)),
        )
        a2 = _add(_e(0, 8), _e(1, 8))
        chain = [
            _add(_e(i + 1, 8), _scale(-1, _e(i, 8))) for i in range(6)
        ]  # e_{i+1} - e_i, nodes 3..8
        return ([a1, a2] + chain)[:n]
    if family == "F":
        return [
            _add(_e(1, 4), _scale(-1, _e(2, 4))),
            _add(_e(2, 4), _scale(-1, _e(3, 4))),
            _e(3, 4),
            _add(
                _scale(Q(1, 2), _e(0, 4)),
                _scale(Q(-1, 2), _e(1, 4)),
                _scale(Q(-1, 2), _e(2, 4)),
                _scale(Q(-1, 2), _e(3, 4)),
            ),
        ]
    if family == "G":
        return [
            _add(_e(0, 3), _scale(-1, _e(1, 3))),
            _add(_scale(-2, _e(0, 3)), _e(1, 3), _e(2, 3)),
        ]
    raise ValueError(f"unknown family {family!r}")


def dot(x, y) -> Q:
    return sum(a * b for a, b in zip(x, y))


def cartan_matrix_from_inner_products(family: str, rank: int) -> list[list[int]]:
    """Cartan integers 2(a_i, a_j)/(a_j, a_j), exactly."""
    roots = euclidean_simple_roots(family, rank)
    out = []
    for ai in roots:
        row = []
        for aj in roots:
            c = 2 * dot(ai, aj) / dot(aj, aj)
            assert c.denominator == 1
            row.append(int(c))
        out.append(row)
    return out


def right_multiply(group, w, i: int):
    """w s_i with a reduced witness word: w's word then i on an ascent; on
    a right descent, w's word less the letter the exchange condition
    deletes, the first position p from the right of w's word b_1..b_m
    with s_{b_{p+1}}..s_{b_m}(alpha_i) = alpha_{b_p}."""
    from petcoh.roots import simple_reflection_action
    from petcoh.weyl import WeylElement

    action, word = group.right_action(w.action, i), w.witness_word
    if i not in group.descents(w.action):
        return WeylElement(action, w.length + 1, word + (i,))
    root = lambda b: tuple(int(k == b - 1) for k in range(group.rank))
    gamma = root(i)
    for p in range(len(word) - 1, -1, -1):
        if gamma == root(word[p]):
            return WeylElement(action, w.length - 1, word[:p] + word[p + 1:])
        gamma = simple_reflection_action(group.cartan, word[p], gamma)
    raise AssertionError("no deletion position found for a right descent")


def from_word(group, word):
    """The element of a word, reduced or not, one ``right_multiply`` per
    letter: the witness word is the word itself when it is reduced."""
    word = tuple(int(i) for i in word)
    if not all(1 <= i <= group.rank for i in word):
        raise IndexError(f"node index out of range 1..{group.rank}: {word}")
    w = group.identity
    for i in word:
        w = right_multiply(group, w, i)
    return w


def longest_element(group, K):
    """Longest element w_K of the parabolic subgroup on the nodes K, by
    greedy ascent: right-multiply by the smallest ascent in K while there
    is one."""
    nodes = sorted(set(K))
    w = group.identity
    while ascents := [i for i in nodes if i not in group.descents(w.action)]:
        w = right_multiply(group, w, ascents[0])
    return w


def v_K(group, K):
    """The product of the simple reflections of K in ascending node order,
    a reduced word."""
    v = from_word(group, sorted(set(K)))
    assert v.length == len(set(K)), K
    return v


def weyl_multiply(group, u, v):
    """The product u v, one right multiplication per letter of v."""
    w = u
    for i in v.witness_word:
        w = right_multiply(group, w, i)
    return w


def brute_reduced_words(group, w) -> set[tuple[int, ...]]:
    """Reduced words for w by filtering all words of length ``w.length``."""
    words = itertools.product(group.cartan.nodes(), repeat=w.length)
    return {word for word in words if from_word(group, word) == w}


class EnumerationCapError(RuntimeError):
    """A reference enumeration would exceed its cap; nothing was truncated."""


# the most elements ``elements_up_to_length`` may produce
ELEMENT_CAP = 200_000

# per group: action -> the set of its reduced words
_words_memo = weakref.WeakKeyDictionary()


def enumerate_reduced_words(group, w, cap=16) -> frozenset:
    """The full set of reduced words for w, by recursing on action matrices
    over the right descents: the reference word set for the trie walk of
    ``billey.reduced_word_tables``.

    Raises EnumerationCapError when l(w) exceeds cap; the enumeration is
    never silently truncated.
    """
    if w.length > cap:
        raise EnumerationCapError(
            f"reduced-word enumeration for length {w.length} exceeds "
            f"cap {cap}")
    memo = _words_memo.setdefault(
        group, {group.identity.action: frozenset({()})})

    def rec(action) -> frozenset:
        words = memo.get(action)
        if words is None:
            words = memo[action] = frozenset(
                prefix + (i,) for i in group.descents(action)
                for prefix in rec(group.right_action(action, i)))
        return words

    words = rec(w.action)
    assert len(words) == group.count_reduced_words(w)
    return words


def right_multiply_reduced_words(group, w) -> frozenset:
    """Reduced words for w by recursing on ``WeylElement`` objects: each
    step builds w s_i with ``right_multiply`` (the exchange-condition
    deletion for its witness word), memoized in a table of its own."""
    memo = {}

    def rec(u):
        if u.action not in memo:
            memo[u.action] = frozenset({()}) if u.is_identity() else frozenset(
                prefix + (i,) for i in group.descents(u.action)
                for prefix in rec(right_multiply(group, u, i)))
        return memo[u.action]

    return rec(w)


def elements_up_to_length(group, max_length: int):
    """All elements of length <= max_length, BFS order (layer by layer):
    one ``right_multiply`` per ascent, keeping the new products, as
    ground truth for the walk of ``weyl.CayleyTable``.  Raises
    EnumerationCapError past ``ELEMENT_CAP`` elements."""
    seen = {group.identity.action}
    layer = [group.identity]
    out = [group.identity]
    for _ in range(max_length):
        nxt = []
        for w in layer:
            for i in group.cartan.nodes():
                if i not in group.descents(w.action):
                    u = right_multiply(group, w, i)
                    if u.action not in seen:
                        seen.add(u.action)
                        nxt.append(u)
                        if len(seen) > ELEMENT_CAP:
                            raise EnumerationCapError(
                                "group enumeration exceeded "
                                f"{ELEMENT_CAP} elements")
        out.extend(nxt)
        layer = nxt
        if not layer:
            break
    return out


def bruhat_leq(group, v, w) -> bool:
    """Subword criterion: some reduced word of v embeds as a subword of
    the fixed reduced word of w."""
    if v.length > w.length:
        return False
    if v.length == 0:
        return True
    target = w.witness_word
    for word in enumerate_reduced_words(group, v):
        it = iter(target)
        if all(letter in it for letter in word):
            return True
    return False


def bruhat_lower_set(group, w) -> set:
    """All elements reachable as products of subwords of w's reduced word.

    By the subword characterization of Bruhat order this is exactly
    ``{v : v <= w}``.
    """
    word = w.witness_word
    out = set()
    for k in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), k):
            out.add(from_word(group, (word[p] for p in positions)))
    return out


def bruhat_intervals(group, elements) -> dict:
    """{w.action: {v.action : v <= w}} for every w in elements, which
    must hold ws for each w != e, s the last letter of w's witness word.
    Built by length from [e, w] = [e, ws] u [e, ws] s for a right descent
    s of w (lifting property; Bjorner-Brenti, Combinatorics of Coxeter
    Groups, Prop. 2.2.7), on action matrices: ground truth for the index
    intervals of ``weyl.CayleyTable``."""
    intervals = {}
    for w in sorted(elements, key=lambda w: w.length):
        if w.is_identity():
            intervals[w.action] = {w.action}
            continue
        s = w.witness_word[-1]
        below = intervals[group.right_action(w.action, s)]
        intervals[w.action] = below | {group.right_action(u, s)
                                       for u in below}
    return intervals


def weyl_group_degrees(family: str, rank: int) -> list[int]:
    """The degrees of the basic invariants of the Weyl group (Humphreys,
    Reflection Groups and Coxeter Groups, Table 3.1): |W| is their
    product and l(w_0) = sum(d_i - 1) the number of positive roots."""
    n = rank
    if family == "A":
        return list(range(2, n + 2))
    if family in "BC":
        return list(range(2, 2 * n + 1, 2))
    if family == "D":
        return sorted(list(range(2, 2 * n - 1, 2)) + [n])
    return {("E", 6): [2, 5, 6, 8, 9, 12],
            ("E", 7): [2, 6, 8, 10, 12, 14, 18],
            ("E", 8): [2, 8, 12, 14, 18, 20, 24, 30],
            ("F", 4): [2, 6, 8, 12],
            ("G", 2): [2, 6]}[family, n]


BOND_ORDERS = {0: 2, 1: 3, 2: 4, 3: 6}


def bond_order(cartan, i: int, j: int) -> int:
    """Order of s_i s_j in the Weyl group: 2, 3, 4 or 6."""
    if i == j:
        raise ValueError("bond order requires two distinct nodes")
    return BOND_ORDERS[cartan.a(i, j) * cartan.a(j, i)]


def is_connected(cartan, nodes) -> bool:
    """True iff the Dynkin subdiagram on ``nodes`` is nonempty and
    connected, by a flood fill along the nonzero Cartan entries."""
    nodes = set(nodes)
    if not nodes:
        return False
    reached, frontier = set(), [min(nodes)]
    while frontier:
        v = frontier.pop()
        if v not in reached:
            reached.add(v)
            frontier.extend(u for u in nodes if u != v and cartan.a(v, u))
    return reached == nodes


def length_of_matrix(group, action) -> int:
    """Inversion count: positive roots whose image under the action matrix
    is negative."""
    count = 0
    for beta in group.cartan.positive_roots():
        img = [sum(row[k] * beta[k] for k in range(group.rank)) for row in action]
        if all(x <= 0 for x in img):
            count += 1
    return count


class PetersonClass:
    """A class in the restriction model: ``values[k] * t^degree`` at the
    k-th fixed point, with its own ring arithmetic.  The reference for the
    model's checks, which compare int rows at t = 1 instead."""

    __slots__ = ("model", "degree", "values")

    def __init__(self, model, degree: int, values):
        values = tuple(values)
        if len(values) != len(model.subsets):
            raise ValueError("value tuple does not match the fixed-point set")
        self.model = model
        self.degree = degree
        self.values = values

    def _check_compatible(self, other: "PetersonClass"):
        if self.model.subsets != other.model.subsets or \
                self.model.cartan != other.model.cartan:
            raise ValueError("classes live over different fixed-point sets")

    def __eq__(self, other):
        # zero is zero in every degree
        return (isinstance(other, PetersonClass) and self.values == other.values
                and (self.degree == other.degree or self.is_zero()))

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError(f"cannot add classes of degrees {self.degree} "
                             f"and {other.degree}")
        return PetersonClass(self.model, self.degree, (
            a + sign * b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        self._check_compatible(other)
        return PetersonClass(self.model, self.degree + other.degree,
                             (a * b for a, b in zip(self.values, other.values)))

    def scale(self, c, power: int = 0) -> "PetersonClass":
        """Multiply by c * t^power."""
        return PetersonClass(self.model, self.degree + power,
                             (c * a for a in self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def __repr__(self):
        return f"PetersonClass(t^{self.degree} * {list(self.values)})"


def subset_class(model, K) -> PetersonClass:
    """p_{v_K} as a ``PetersonClass``: the model's row, of degree |K|."""
    return PetersonClass(model, len(set(K)), model.subset_class(K))


def simple_class(model, i: int) -> PetersonClass:
    return subset_class(model, (i,))


def one_class(model) -> PetersonClass:
    return PetersonClass(model, 0, model.one())


def class_value(cls, K):
    """Restriction of a ``PetersonClass`` at the fixed point w_K:
    c * t^degree as a polynomial in the one variable t, the ring that
    restriction to S lands in."""
    return Poly(1, {(cls.degree,): cls.values[cls.model.subset_index(K)]})


def basis_matrix(model):
    """Matrix of p_{v_K}(w_J) as polynomials in t, with rows K and columns J
    in the model's fixed subset order."""
    return [[class_value(subset_class(model, K), J) for J in model.subsets]
            for K in model.subsets]


def quadratic_combination(model, i: int) -> tuple[int, ...]:
    """sum_j <alpha_i, alpha_j> p_{s_i} p_{s_j} - 2 t p_{s_i}, of degree 2,
    as its row: theta_i written out from the Cartan matrix, apart from
    ``commalg.build_ideal_J``, as ground truth for ``quadric_rows``."""
    p_i = model.simple_class(i)
    terms = [(a_ij, model.simple_class(j)) for j in model.cartan.nodes()
             if (a_ij := model.cartan.a(i, j))]
    return tuple(c * (sum(a_ij * p_j[L] for a_ij, p_j in terms) - 2)
                 for L, c in enumerate(p_i))


def class_verify_quadratic(model):
    """The ``quadratic`` record by ``PetersonClass`` arithmetic: each
    residual sum_j a_ij p_i p_j - 2 t p_i built as a class."""
    from petcoh.report import CheckRecord

    failing = []
    for i in model.cartan.nodes():
        p_i = simple_class(model, i)
        acc = p_i.scale(-2, 1)
        for j in model.cartan.nodes():
            if model.cartan.a(i, j):
                acc = acc + (p_i * simple_class(model, j)).scale(model.cartan.a(i, j))
        if not acc.is_zero():
            failing.append(i)
    return CheckRecord(
        check="quadratic",
        lie_type=model.type_name(),
        passed=not failing,
        parameters={"relations": model.rank},
        witnesses={"failing_rows": failing},
    )


def _row_product(rows) -> tuple[int, ...]:
    """The pointwise product of one or more rows."""
    return tuple(reduce(partial(map, mul), rows))


def product_holds(model, K, components) -> bool:
    """True iff p_{v_K} = prod_C p_{v_C} over the given node sets C, on the
    model's rows: the product rule, for the connected components C of a
    disconnected K.  The ``giambelli`` check read it for such a K before
    it read Giambelli's identity for every K; kept as the test of the
    product rule itself."""
    return model.subset_class(K) == \
        _row_product(model.subset_class(C) for C in components)


def class_check_giambelli(model):
    """The ``giambelli`` check record by ``PetersonClass`` arithmetic: a
    connected K by |K|! p_{v_K} = #words prod p_{s_i}, a disconnected one
    by p_{v_K} = prod_C p_{v_C} over its components, both as classes."""
    from math import factorial

    from petcoh.report import CheckRecord

    cartan = model.cartan
    coefficients, products, failures = [], [], []
    for K in model.subsets[1:]:
        components = cartan.connected_components(K)
        if len(components) == 1:
            n_words = model.group.count_reduced_words(v_K(model.group, K))
            rhs = one_class(model)
            for i in K:
                rhs = rhs * simple_class(model, i)
            passed = subset_class(model, K).scale(factorial(len(K))) == \
                rhs.scale(n_words)
            coefficients.append({"K": list(K),
                                 "coefficient": fraction_text(Q(factorial(len(K)),
                                                                n_words)),
                                 "reduced_words": n_words})
            kind = "giambelli"
        else:
            rhs = one_class(model)
            for C in components:
                rhs = rhs * subset_class(model, C)
            passed = subset_class(model, K) == rhs
            products.append({"K": list(K),
                             "components": [list(C) for C in components]})
            kind = "disconnected_product"
        if not passed:
            failures.append({"kind": kind, "K": list(K)})
    return CheckRecord(
        check="giambelli",
        lie_type=model.type_name(),
        passed=not failures,
        parameters={"connected_subsets": len(coefficients),
                    "disconnected_subsets": len(products)},
        witnesses={"coefficients": coefficients, "products": products,
                   "failures": failures},
    )


def class_verify_basis(model):
    """The ``basis`` record with the support condition decided by
    ``set(K) <= set(J)`` for every pair of subsets, on class values."""
    from petcoh.report import CheckRecord

    rows = [subset_class(model, K).values for K in model.subsets]
    ok_support = not any(
        rows[r][c] for r, K in enumerate(model.subsets)
        for c, J in enumerate(model.subsets) if not set(K) <= set(J))
    ok_triangular = not any(rows[r][c] for r in range(len(rows))
                            for c in range(r))
    ok_diagonal = all(rows[r][r] for r in range(len(rows)))
    return CheckRecord(
        check="basis",
        lie_type=model.type_name(),
        passed=ok_support and ok_triangular and ok_diagonal,
        parameters={"size": len(model.subsets)},
        witnesses={
            "upper_triangular": ok_triangular,
            "support_condition": ok_support,
            "diagonal_nonzero": ok_diagonal,
            "diagonal": [["0/1"] * len(K) + [f"{rows[r][r]}/1"]
                         if rows[r][r] else []
                         for r, K in enumerate(model.subsets)],
        },
    )


def series_prefix(numer: list[int], denom: list[int], count: int) -> list[int]:
    """First ``count`` power-series coefficients of numer/denom (exact)."""
    assert denom[0] != 0
    coeffs = []
    state = list(numer) + [0] * max(0, count - len(numer))
    for k in range(count):
        c = Q(state[k], denom[0])
        assert c.denominator == 1
        c = int(c)
        coeffs.append(c)
        for j, d in enumerate(denom):
            if k + j < len(state):
                state[k + j] -= c * d
    return coeffs


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_pow(p: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def _trim(p) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a, b):
    """Quotient and remainder of univariate coefficient lists over Q."""
    a, b = [Q(c) for c in _trim(a)], _trim(b)
    q = [Q(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        f = a[k + len(b) - 1] / b[-1]
        q[k] = f
        for j, c in enumerate(b):
            a[k + j] -= f * c
    return _trim(q), _trim(a)


def fraction_reduced_series(numerator, denominator):
    """numerator/denominator in lowest terms the seed's way: divide both by
    their monic gcd over Q (Euclid's algorithm on Fractions), then scale to
    coprime integers with the first nonzero denominator coefficient
    positive.  Ground truth for ``HilbertSeries.over_one_minus_s2``."""
    from petcoh.commalg import HilbertSeries

    a, b = _trim(numerator), _trim(denominator)
    assert b, "denominator must be nonzero"
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    g = [Q(c) / a[-1] for c in a]
    (num, rem_num), (den, rem_den) = (_poly_divmod(numerator, g),
                                      _poly_divmod(denominator, g))
    assert not rem_num and not rem_den
    scale = lcm(*(c.denominator for c in num + den))
    num, den = [int(c * scale) for c in num], [int(c * scale) for c in den]
    content = gcd(*num, *den)
    sign = -1 if next(c for c in den if c) < 0 else 1
    return HilbertSeries(tuple(sign * c // content for c in num),
                         tuple(sign * c // content for c in den))


def fraction_rank(rows) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [[Q(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def fraction_det(rows) -> Q:
    """Determinant by Gaussian elimination on Fractions with row swaps."""
    m = [[Q(x) for x in row] for row in rows]
    n = len(m)
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def bareiss_pivots(rows, pivoting: bool = True) -> list[int]:
    """Pivots of fraction-free Gaussian elimination on an integer matrix
    (Bareiss, Math. Comp. 22, 1968).

    Each step replaces every entry below the pivot row by
    (a * pivot - f * b) / (previous pivot); Sylvester's identity makes the
    division exact, so the arithmetic never leaves the integers.

    With pivoting, each column takes its first nonzero entry at or below
    the current row as pivot, and a column without one is skipped; the
    number of pivots is the rank.  Without pivoting, the k-th pivot is the
    k-th leading principal minor, and the list stops at the first zero one,
    past which the elimination cannot go on.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        if pivoting:
            r = next((r for r in range(k, len(m)) if m[r][col]), None)
            if r is None:
                continue
            m[k], m[r] = m[r], m[k]
        top = m[k]
        pivot = top[col]
        pivots.append(pivot)
        if not pivot:
            break
        for row in m[k + 1:]:
            f = row[col]
            row[col + 1:] = [(a * pivot - f * b) // prev
                             for a, b in zip(row[col + 1:], top[col + 1:])]
        prev = pivot
    return pivots


def _compositions(total: int, parts: int):
    """All exponent tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def all_monomials_graded_dims(model, cutoff_degree: int, rank=None) -> list[int]:
    """The graded dimensions of the image of Q[t, p_{s_1}..p_{s_n}] the
    slow way: for each degree d, one integer row per monomial of degree d
    in t, p_{s_1}..p_{s_n} (C(d+n, n) rows), ranked from scratch; ground
    truth for ``echelon_graded_dims`` and the product-basis argument.
    ``rank`` defaults to the pivoting Bareiss rank and can be swapped for
    another rank function."""
    rank = rank or (lambda rows: len(bareiss_pivots(rows)))
    ones = model.one()
    simple = [model.simple_class(i) for i in model.cartan.nodes()]
    dims = []
    for d in range(cutoff_degree // 2 + 1):
        rows = []
        for exps in _compositions(d, model.rank + 1):
            # exps[0] is the power of t, which is 1 at every fixed point
            row = ones
            for vec, e in zip(simple, exps[1:]):
                if e:
                    row = [a * b ** e for a, b in zip(row, vec)]
            rows.append(row)
        dims.append(rank(rows))
    return dims


class IntegerEchelon:
    """An echelon form of primitive integer rows, grown one row at a time.

    Rows are stored by pivot (leading) column, in insertion order.  A new
    row is reduced against every stored row in that order, each step a
    cross-multiplication that clears the stored row's pivot column; a
    stored row vanishes at the pivots of the rows stored before it, so one
    pass clears every pivot column.  A nonzero remainder is divided by the
    gcd of its entries and stored under its leading column.  The number of
    stored rows is the rank of everything inserted.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, row) -> bool:
        """Add a row; True iff it is independent of the rows stored so far."""
        row = list(row)
        for col, stored in self.rows.items():
            f = row[col]
            if f:
                p = stored[col]
                g = gcd(f, p)
                f, p = f // g, p // g
                row = [a * p - f * b for a, b in zip(row, stored)]
        lead = next((col for col, a in enumerate(row) if a), None)
        if lead is None:
            return False
        g = gcd(*row)
        self.rows[lead] = [a // g for a in row]
        return True


def echelon_graded_dims(model, cutoff_degree: int) -> list[int]:
    """The graded dimensions of the image of Q[t, p_{s_1}..p_{s_n}] by the
    frontier recursion at t = 1: V_d = V_{d-1} + sum_i p_{s_i} N_{d-1}, where
    N_{d-1} holds the rows that were new at degree d-1, every candidate
    going through one ``IntegerEchelon``; at most 1 + n 2^n rows are tried
    over all degrees.  Ground truth for the product-basis argument of
    ``PetersonModel.image_graded_dimensions``."""
    simple = [model.simple_class(i) for i in model.cartan.nodes()]
    one = model.one()
    echelon = IntegerEchelon()
    echelon.insert(one)
    new, dims = [one], [1]
    for _ in range(cutoff_degree // 2):
        candidates = [tuple(a * b for a, b in zip(row, vec))
                      for row in new for vec in simple]
        new = [row for row in candidates if echelon.insert(row)]
        dims.append(len(echelon))
    return dims


def mat_mul(a, b):
    """Product of two square integer matrices given as tuples of rows."""
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


def reflection_matrix(cartan, i: int):
    """Matrix of s_i on simple-root coordinates, straight from the Cartan
    integers: column c is s_i(alpha_c) = alpha_c - a(c, i) alpha_i."""
    n = cartan.rank
    return tuple(
        tuple((1 if r == c else 0) - (cartan.entries[c][i - 1] if r == i - 1 else 0)
              for c in range(n))
        for r in range(n)
    )


def word_matrix(cartan, word):
    """Matrix of the product s_{word[0]} .. s_{word[-1]}."""
    n = cartan.rank
    out = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    for i in word:
        out = mat_mul(out, reflection_matrix(cartan, i))
    return out


def matrix_inversion_roots(cartan, word) -> list[tuple[int, ...]]:
    """r(j) = s_{b_1}..s_{b_{j-1}}(alpha_{b_j}) by a matrix prefix product."""
    n = cartan.rank
    prefix = word_matrix(cartan, ())
    out = []
    for b in word:
        out.append(tuple(prefix[r][b - 1] for r in range(n)))
        prefix = mat_mul(prefix, reflection_matrix(cartan, b))
    return out


def linear_poly(coords):
    """The linear form sum_i c_i z_i, e.g. a root in the simple roots."""
    n = len(coords)
    return Poly(n, {tuple(1 if k == i else 0 for k in range(n)): c
                    for i, c in enumerate(coords)})


def subword_localization(group, v, w):
    """sigma_v(w) by Billey's subword formula, scanning all C(l(w), l(v))
    position sets of w's witness word.

    A position set counts when its letters multiply to v; having l(v)
    letters, such a word is then a reduced word of v.  Products of
    reflections and the roots r(j) both come from plain matrix products.
    """
    cartan = group.cartan
    word = w.witness_word
    factors = [linear_poly(r) for r in matrix_inversion_roots(cartan, word)]
    products: dict[tuple, tuple] = {}
    total = Poly(cartan.rank)
    for positions in itertools.combinations(range(len(word)), v.length):
        letters = tuple(word[p] for p in positions)
        if letters not in products:
            products[letters] = word_matrix(cartan, letters)
        if products[letters] != v.action:
            continue
        term = Poly(cartan.rank, {(0,) * cartan.rank: 1})
        for p in positions:
            term = poly_product(term, factors[p])
        total = poly_sum(total, term)
    return total


def restrict_to_S(terms):
    """Substitute alpha_i -> t for every i in a polynomial in the simple
    roots, {exponent tuple: coefficient} as ``billey_localization`` returns
    it, summing in Fractions: a polynomial in the one variable t, ground
    truth for the integer restricted table."""
    out: dict[tuple[int], Q] = {}
    for exps, c in terms.items():
        k = (sum(exps),)
        out[k] = out.get(k, Q(0)) + c
    return Poly(1, out)


def is_monomial_of_degree(p, d: int) -> bool:
    """The polynomial p in t is zero, or exactly one term c*t^d."""
    return set(p.terms) <= {(d,)}


def per_class_restriction(model, v):
    """p_v as one t-polynomial per fixed point, by one single-target
    localization per (v, w_K), each restricted to t on its own: ground
    truth for the model's one table per fixed point."""
    from petcoh.billey import billey_localization

    return [restrict_to_S(billey_localization(model.group, v,
                                              longest_element(model.group, K)))
            for K in model.subsets]


def restricted_rows_per_fixed_point(group, subsets) -> tuple[tuple[int, ...], ...]:
    """Row k: c with sigma_{v_J}(w_L)|_S = c t^|J| at every L in subsets,
    J = subsets[k].  The witness word of each w_L, from its own greedy
    ``longest_element``, runs over the steps with J inside L;
    sigma_{v_J}(w_L) = 0 for every other J: ground truth for the rows'
    one walk of the subset lattice."""
    from petcoh.billey import inversion_roots, subset_steps

    steps = subset_steps(group)
    masks = [sum(1 << i - 1 for i in K) for K in subsets]
    columns = []
    for K, L in zip(subsets, masks):
        w = longest_element(group, K)
        inside = {b: [(J, lower) for J, lower in steps[b] if not J & ~L]
                  for b in K}
        values = [1] + [0] * ((1 << group.rank) - 1)
        for b, root in zip(w.witness_word, inversion_roots(group, w)):
            height = sum(root)
            # b is an ascent of v_{J - b}, so no source changes in this step
            for J, lower in inside[b]:
                values[J] += height * values[lower]
        columns.append(values)
    return tuple(tuple(values[J] for values in columns) for J in masks)


def restricted_rows_all_steps(group, subsets, steps) -> tuple[tuple[int, ...], ...]:
    """``billey.restricted_rows`` with every letter b of a column's ascent
    running over all of ``steps[b]``, with no filter by K, and the rows
    read off the columns entry by entry: ground truth for the walk that
    runs each column over the steps inside its K only."""
    masks = [sum(1 << i - 1 for i in K) for K in subsets]
    walked: dict[int, tuple] = {}
    columns = []
    for K, L in zip(subsets, masks):
        if L:
            action, values = walked[L ^ 1 << L.bit_length() - 1]
            values = values.copy()
        else:
            action = group.identity.action
            values = [1] + [0] * ((1 << group.rank) - 1)
        while True:  # greedy ascent over K to w_K
            for b in K:
                root = tuple(row[b - 1] for row in action)
                if not (all(c <= 0 for c in root) and any(c < 0 for c in root)):
                    break
            else:
                break
            assert all(c >= 0 for c in root) and any(c > 0 for c in root), root
            height = sum(root)
            for J, lower in steps[b]:
                values[J] += height * values[lower]
            action = group.right_action(action, b)
        walked[L] = action, values
        columns.append(values)
    return tuple(tuple(values[J] for values in columns) for J in masks)


def fundamental_weights(cartan) -> list[tuple[Q, ...]]:
    """The fundamental weights varpi_i in simple-root coordinates, as
    Fractions: <varpi_i, alpha_j^vee> = delta_ij with
    <alpha_k, alpha_j^vee> = cartan.a(k, j) gives A^T varpi_i = e_i, so
    varpi_i is column i of (A^T)^{-1}, by Gauss-Jordan elimination."""
    n = cartan.rank
    rows = [[Q(cartan.a(k, j)) for k in range(1, n + 1)]
            + [Q(int(j == i)) for i in range(1, n + 1)]
            for j in range(1, n + 1)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [tuple(rows[k][n + i] for k in range(n)) for i in range(n)]


def billey_welldef_per_word(model):
    """The ``billey_welldef`` record with one ``localization_table`` per
    reduced word of each w, each a full prefix recursion over its word:
    ground truth for the check's one walk over the trie of reduced words."""
    from petcoh.billey import localization_table
    from petcoh.cli import _WELLDEF_LENGTH_BY_RANK
    from petcoh.report import CheckRecord
    from petcoh.weyl import word_to_str

    group = model.group
    max_len = _WELLDEF_LENGTH_BY_RANK.get(model.rank, 3)
    elements = elements_up_to_length(group, max_len)
    comparisons = 0
    failures = []
    for w in elements:
        targets = [v for v in elements if v.length <= w.length]
        # one table per reduced word of w; the witness word's is the baseline
        tables = {word: localization_table(group, targets, from_word(group, word))
                  for word in enumerate_reduced_words(group, w)}
        baseline = tables[w.witness_word]
        for v in targets:
            value = baseline[v]
            if bool(value) != bruhat_leq(group, v, w):
                failures.append({"kind": "vanishing",
                                 "v": word_to_str(v.witness_word),
                                 "w": word_to_str(w.witness_word)})
            if value and {sum(e) for e in value} != {v.length}:
                failures.append({"kind": "degree",
                                 "v": word_to_str(v.witness_word),
                                 "w": word_to_str(w.witness_word)})
        for word, table in tables.items():
            for v in targets:
                comparisons += 1
                if table[v] != baseline[v]:
                    failures.append({"kind": "witness_dependence",
                                     "v": word_to_str(v.witness_word),
                                     "w_word": word_to_str(word)})
    return CheckRecord(
        check="billey_welldef",
        lie_type=model.type_name(),
        passed=not failures,
        parameters={"max_length": max_len, "elements": len(elements)},
        witnesses={"comparisons": comparisons, "failures": failures[:20]},
    )


def fraction_text(q: Q) -> str:
    """The report's "num/den" form of a rational, in the lowest terms and
    with the positive denominator that ``Fraction`` keeps."""
    return f"{q.numerator}/{q.denominator}"


def monk_fraction(model, i: int, K, J) -> Q:
    """``PetersonModel.monk_coefficient``'s (num, den) pair as a Fraction."""
    return Q(*model.monk_coefficient(i, K, J))


def fraction_verify_monk(model, i: int, K):
    """The Monk record with the identity summed in Fractions, each class
    scaled by its own rational coefficient: ground truth for the model's
    check with the denominators cleared."""
    from petcoh.report import CheckRecord

    K = tuple(sorted(set(K)))
    p_i = simple_class(model, i)
    p_K = subset_class(model, K)
    lhs = p_i * p_K
    rhs = p_K.scale(p_i.values[model.subset_index(K)], p_i.degree)
    coeffs = []
    for j in model.cartan.nodes():
        if j in K:
            continue
        J = tuple(sorted(K + (j,)))
        c = monk_fraction(model, i, K, J)
        coeffs.append({"J": list(J), "coefficient": c})
        if c:
            rhs = rhs + subset_class(model, J).scale(c)
    passed = lhs == rhs
    nonneg = all(item["coefficient"] >= 0 for item in coeffs)
    return CheckRecord(
        check="monk",
        lie_type=model.type_name(),
        passed=passed and nonneg,
        parameters={"i": i, "K": list(K)},
        witnesses={
            "coefficients": coeffs,
            "identity_holds": passed,
            "coefficients_nonnegative": nonneg,
        },
    )


def monk_coefficients_per_identity(model, i: int, K, table=None):
    """The cover indices of K and, per cover J, the pair (num_J, den_J) of
    Monk's coefficient c_J of p_{s_i} times row K of ``table`` (default
    ``model._rows``): num_J = (p_{s_i}(w_J) - p_{s_i}(w_K)) r_K(w_J) and
    den_J = r_J(w_J), found for this identity alone.  On the product table
    c_J is the coefficient of b_J in p_{s_i} b_K."""
    rows = model._rows if table is None else table
    K = tuple(sorted(set(K)))
    k = model.subset_index(K)
    covers = [model.subset_index(K + (j,))
              for j in model.cartan.nodes() if j not in K]
    p_i = model.simple_class(i)
    return covers, [((p_i[j] - p_i[k]) * rows[k][j], rows[j][j])
                    for j in covers]


def monk_holds_per_identity(model, i: int, K, table=None) -> bool:
    """One Monk identity (i, K) in integers on ``table`` (default
    ``model._rows``), with the covers, their diagonals, the lcm D and the
    fixed points compared all found for this identity alone: ground truth
    for ``peterson._expansion_failures``, which reads them once per K, on
    the rows (``monk_failures``) and on the product table (the
    ``graded_dims`` spanning step).  Compared where row K or a cover row is
    nonzero; a zero diagonal is the model's ``IntegrityError``."""
    from petcoh.errors import IntegrityError

    rows = model._rows if table is None else table
    K = tuple(sorted(set(K)))
    k = model.subset_index(K)
    covers, pairs = monk_coefficients_per_identity(model, i, K, rows)
    D = lcm(*(den for _, den in pairs))
    if not D:
        J = model.subsets[covers[[den for _, den in pairs].index(0)]]
        raise IntegrityError(f"Monk division by zero for i={i}, K={K}, J={J}")
    if any(num * den < 0 for num, den in pairs):
        return False
    p_i, p_K = model.simple_class(i), rows[k]
    points = sorted({L for r in [k] + covers for L, c in enumerate(rows[r]) if c})
    for L in points:
        rhs = sum(D // den * num * rows[j][L]
                  for j, (num, den) in zip(covers, pairs))
        if D * (p_i[L] - p_i[k]) * p_K[L] != rhs:
            return False
    return True


def verify_monk_full(model, i: int, K):
    """The Monk record by ``PetersonClass`` arithmetic, with the cleared
    identity D p_i p_K = D p_i(K) p_K + sum m_J p_J built as classes and
    compared at every fixed point: ground truth for the model's comparison
    on value tuples at the fixed points where p_K or a cover p_J is nonzero."""
    from petcoh.report import CheckRecord

    K = tuple(sorted(set(K)))
    p_i = simple_class(model, i)
    p_K = subset_class(model, K)
    covers = [tuple(sorted(K + (j,)))
              for j in model.cartan.nodes() if j not in K]
    cs = [monk_fraction(model, i, K, J) for J in covers]
    D = lcm(*(c.denominator for c in cs))
    lhs = (p_i * p_K).scale(D)
    rhs = p_K.scale(D * p_i.values[model.subset_index(K)], p_i.degree)
    for J, c in zip(covers, cs):
        if c:
            rhs = rhs + subset_class(model, J).scale(
                D // c.denominator * c.numerator)
    coeffs = [{"J": list(J), "coefficient": c} for J, c in zip(covers, cs)]
    passed = lhs == rhs
    nonneg = all(c >= 0 for c in cs)
    return CheckRecord(
        check="monk",
        lie_type=model.type_name(),
        passed=passed and nonneg,
        parameters={"i": i, "K": list(K)},
        witnesses={
            "coefficients": coeffs,
            "identity_holds": passed,
            "coefficients_nonnegative": nonneg,
        },
    )


def class_check_monk(model):
    """The whole ``monk`` check record, each identity decided by
    ``verify_monk_full`` at every fixed point, plus the Cartan-integer
    cross-check on the covers of singletons."""
    from petcoh.report import CheckRecord

    cartan = model.cartan
    nodes = cartan.nodes()
    failures = [{"i": i, "K": list(K)} for i in nodes for K in model.subsets
                if not verify_monk_full(model, i, K).passed]
    pairs = [(i, j) for i in nodes for j in nodes if i != j]
    coefficients = [monk_fraction(model, i, (i,), (i, j)) for i, j in pairs]
    cross = [{"i": i, "j": j, "coefficient": fraction_text(c),
              "expected": -cartan.a(i, j)}
             for (i, j), c in zip(pairs, coefficients)]
    cross_ok = all(c == -cartan.a(i, j) for (i, j), c in zip(pairs, coefficients))
    return CheckRecord(
        check="monk",
        lie_type=model.type_name(),
        passed=not failures and cross_ok,
        parameters={"identities_checked": len(nodes) * len(model.subsets)},
        witnesses={
            "failures": failures,
            "cartan_cross_check": cross,
            "cartan_cross_check_ok": cross_ok,
        },
    )


def fraction_verify_giambelli(model, K):
    """The Giambelli record for a connected K with p_{v_K} scaled by the
    Fraction |K|!/#reduced-words(v_K): ground truth for the model's check
    in integers."""
    from math import factorial

    from petcoh.report import CheckRecord

    K = tuple(sorted(set(K)))
    n_words = model.group.count_reduced_words(v_K(model.group, K))
    coeff = Q(factorial(len(K)), n_words)
    rhs = one_class(model)
    for i in K:
        rhs = rhs * simple_class(model, i)
    return CheckRecord(
        check="giambelli",
        lie_type=model.type_name(),
        passed=subset_class(model, K).scale(coeff) == rhs,
        parameters={"K": list(K)},
        witnesses={"coefficient": coeff, "reduced_words": n_words},
    )


# Monomial orders on exponent tuples, as order keys: grevlex is the
# reference for the packed order of ``commalg.MonomialCode``; the tuple and
# Fraction engines below take either, so that a series read under grevlex
# can be recomputed under grlex.

def grevlex_key(exps):
    """Graded reverse lexicographic, first listed variable largest."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def grlex_key(exps):
    """Graded lexicographic, first listed variable largest."""
    return (sum(exps), exps)


MONOMIAL_ORDERS = {"grevlex": grevlex_key, "grlex": grlex_key}


def order_key(ordering: str):
    try:
        return MONOMIAL_ORDERS[ordering]
    except KeyError:
        raise ValueError(
            f"unknown monomial order {ordering!r}; expected one of "
            f"{sorted(MONOMIAL_ORDERS)}") from None


def leading(p, key):
    """(exponents, coefficient) of the leading term of p under the order
    key."""
    exps = max(p.terms, key=key)
    return exps, p.terms[exps]


def leading_exponents(basis, ordering: str = "grevlex"):
    """The leading exponent tuple of every polynomial of the basis, each
    given as plain term data (as ``groebner_basis`` returns it)."""
    key = order_key(ordering)
    return [max(dict(g), key=key) for g in basis]


# The seed's Buchberger loop, kept as ground truth for commalg's engine.  It
# divides in Fractions, as the seed did, where the engine divides in
# integers.  The monomial helpers, the Poly arithmetic and the Poly scalings
# are the seed's too, and the Poly container lives here, so the oracle
# shares no code with the engine it checks.

def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _combine(p, q, sign):
    out = dict(p.terms)
    for exps, c in q.terms.items():
        acc = out.get(exps, 0) + sign * c
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return type(p)(p.nvars, out)


def poly_sum(p, q):
    return _combine(p, q, 1)


def poly_difference(p, q):
    return _combine(p, q, -1)


def poly_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = _mono_mul(e1, e2)
            acc = out.get(exps, 0) + c1 * c2
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
    return type(p)(p.nvars, out)


def sorted_terms(p, key):
    return sorted(p.terms.items(), key=lambda kv: key(kv[0]), reverse=True)


def as_term_list(p, key=None):
    """Serialization: descending [(exponents, numerator, denominator)],
    grevlex by default."""
    return [[list(e), Q(c).numerator, Q(c).denominator]
            for e, c in sorted_terms(p, key or grevlex_key)]


def render(p, var_names=None, key=None) -> str:
    """p as text, e.g. ``2*x1^2 + -1*x1*x2``; variables z1, z2, ... unless
    named."""
    var_names = var_names or [f"z{i + 1}" for i in range(p.nvars)]
    if not p.terms:
        return "0"
    bits = []
    for e, c in sorted_terms(p, key or grevlex_key):
        mono = "*".join(
            f"{var_names[i]}" + (f"^{k}" if k > 1 else "")
            for i, k in enumerate(e) if k)
        bits.append(f"{c}" + (f"*{mono}" if mono else ""))
    return " + ".join(bits)


def ideal_to_json(ideal):
    return {
        "variables": list(ideal.var_names),
        "generators": [as_term_list(g) for g in generator_polys(ideal)],
    }


def _cleared(terms) -> tuple[int, dict]:
    """(den, ints): rational terms are ints / den."""
    den = lcm(*(Q(c).denominator for c in terms.values()))
    return den, {e: int(c * den) for e, c in terms.items()}


def normal_form(p, basis):
    """Remainder of p on division by the basis under grevlex, by the
    engine's integer reduction as it ran before it stopped at the top,
    ``full_regular_reduce``, on packed monomials: p and every divisor are
    cleared of their denominators and packed, each divisor enters in the
    engine's primitive form (scaling a divisor leaves the remainder
    unchanged) at index 0, below the work's index 1, so that every divisor
    qualifies and the first dividing one reduces, and the unpacked integer
    remainder is divided by p's denominator and the running scale."""
    from petcoh import commalg

    code = commalg.MonomialCode(p.nvars)

    def packed(terms):
        return {code.encode(e): c for e, c in _cleared(terms)[1].items()}

    den = _cleared(p.terms)[0]
    divisors = [(0, 0, *commalg._reducer(packed(g.terms))) for g in basis if g]
    remainder, scale = full_regular_reduce(packed(p.terms), 1, 0, divisors,
                                           code, {})
    return Poly(p.nvars, {code.decode(e): Q(c, den * scale)
                          for e, c in remainder.items()})


# The signature engine as commalg ran it before its reduction stopped at the
# top and before the F5 criterion moved to pair creation: every reduction
# reduces the tail in full, and every J-pair is queued.  Ground truth for
# the (index, signature, lead) of every element of ``commalg._groebner_basis``.

def _full_cancel(work: dict, remainder: dict, heap: list, m: int, coeff: int,
                 lead: int, lc: int, tail) -> int:
    """Cancel the term coeff * m, just popped from ``work``, by a reducer
    lc * lead + tail with lead | m, fraction-free: multiply everything
    collected so far, the work and the remainder, by lc / d and subtract
    coeff / d * (m / lead) * tail, where d = gcd(coeff, lc).  A monomial new
    to ``work`` goes on the heap of negated codes.  Returns lc / d, the
    factor by which the reduction's scale grew."""
    d = gcd(coeff, lc)
    a, b = lc // d, coeff // d
    if a != 1:
        for e in work:
            work[e] *= a
        for e in remainder:
            remainder[e] *= a
    shift = m - lead
    for e, c in tail:
        e += shift
        old = work.get(e)
        if old is None:
            work[e] = -b * c
            heappush(heap, -e)
        else:
            acc = old - b * c
            if acc:
                work[e] = acc
            else:
                del work[e]
    return a


def full_regular_reduce(work: dict, index: int, sig: int, elements,
                        code, memo: dict) -> tuple[dict, int]:
    """Fraction-free full regular reduction of the integer terms ``work``
    (keyed by code, consumed) of signature sig * e_index by the engine's
    elements ``(index, signature monomial, lead, lc, tail)``; returns
    (remainder, scale) with the remainder congruent to scale * work, scale a
    positive integer.

    A term t is reduced by the first element h whose leading monomial
    divides it and whose multiple (t / lm h) * sig(h) has a smaller
    signature, so that the signature stays sig * e_index: every element of
    a smaller index qualifies, one of the same index when its signature
    monomial times t / lm h is below sig.  The search starts at the first
    divisor ``_first_position`` finds, and each term is cancelled by
    ``_full_cancel``."""
    from petcoh.commalg import _first_position

    mask, guards = code.mask, code.guards
    count = len(elements)
    heap = [-t for t in work]
    heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        t = -heappop(heap)
        coeff = work.pop(t, 0)
        if not coeff:
            continue  # cancelled, or a second heap entry of a done monomial
        probe = t & mask | guards
        for p in range(_first_position(t, elements, code, memo), count):
            hi, hm, lead, lc, tail = elements[p]
            if ((probe - (lead & mask)) & guards == guards
                    and (hi < index or t - lead + hm < sig)):
                scale *= _full_cancel(work, remainder, heap, t, coeff, lead, lc,
                                      tail)
                break
        else:
            remainder[t] = coeff
    return remainder, scale


def tail_reduced_signature_basis(ideal):
    """(code, elements) as ``commalg._groebner_basis`` returns them, from
    the loop that reduces in full with ``full_regular_reduce`` and tests
    the F5 criterion when a pair is popped, uncached."""
    from petcoh.commalg import (
        MAX_DEGREE,
        MonomialCode,
        _first_position,
        _reducer,
        s_polynomial,
    )

    code = MonomialCode(ideal.nvars)
    gens = [{code.encode(e): c for e, c in g} for g in ideal.generators]
    # (index, signature monomial, lead, lc, tail), in the order treated:
    # every element of index i comes before any of index i + 1
    elements = []
    syzygies = [[] for _ in gens]  # signature monomials reduced to zero
    # J-pairs (index, signature monomial, own element, other element, lcm),
    # own holding the larger signature; generator i enters with signature
    # (i, 1), 1 being code 0, and own -1
    queue = [(i, 0, -1, -1, 0) for i in range(len(gens))]
    memo = {}  # code -> position, see ``_first_position``
    done = None  # the last signature reduced
    first = 0  # position of the first element of the current index

    while queue:
        i, m, own, other, lcm_fg = heappop(queue)
        if (i, m) == done:
            # every J-pair formed after reducing T has a larger signature,
            # so equal signatures pop one after another
            continue
        if own < 0:
            first = len(elements)
            work = gens[i]
        else:
            if (_first_position(m, elements, code, memo) < first
                    or any(code.divides(s, m) for s in syzygies[i])
                    or any(code.divides(h[1], m)
                           for h in islice(elements, own + 1, None))):
                continue  # F5, syzygy or rewrite criterion
            work = s_polynomial(elements[own][2:], elements[other][2:], lcm_fg)
        done = (i, m)
        remainder, _ = full_regular_reduce(work, i, m, elements, code, memo)
        if not remainder:
            syzygies[i].append(m)
            continue
        # kept even when singular top-reducible, that is when some
        # (lead / lm h) * sig(h) equals the signature: the rewrite criterion
        # must find this element as the newest of its signature, and
        # dropping it can lose a basis element
        lead, lc, tail = _reducer(remainder)
        new = len(elements)
        for k, (hi, hm, hl, _, _) in enumerate(elements):
            lcm_fg = code.lcm(lead, hl)
            mine, theirs = (i, lcm_fg - lead + m), (hi, lcm_fg - hl + hm)
            if mine == theirs:
                continue  # the two sides cancel in the signature
            pair = ((*mine, new, k, lcm_fg) if mine > theirs
                    else (*theirs, k, new, lcm_fg))
            # (lcm / lead) * m, from codes within the limit, has degree at
            # most 2 * MAX_DEGREE < 2 ** FIELD_BITS: no field carries, so its
            # code and degree are exact
            degree = code.degree(pair[1])
            if degree > MAX_DEGREE:
                raise ValueError(f"J-pair signature of degree {degree} "
                                 f"exceeds the packed monomial limit "
                                 f"{MAX_DEGREE}")
            heappush(queue, pair)
        elements.append((i, m, lead, lc, tail))

    return code, tuple(elements)


def term_mul(p, coeff, exps):
    """p times coeff * x^exps."""
    return Poly(p.nvars, {_mono_mul(e, exps): c * coeff for e, c in p.terms.items()})


def normalized(p):
    """p scaled to integer content 1 and a positive leading coefficient
    under grevlex."""
    if not p:
        return p
    den = lcm(*(c.denominator for c in p.terms.values()))
    g = gcd(*(int(c * den) for c in p.terms.values()))
    factor = Q(den, g)
    if leading(p, grevlex_key)[1] < 0:
        factor = -factor
    return Poly(p.nvars, {e: c * factor for e, c in p.terms.items()})


def monic(p, key):
    """p scaled to leading coefficient 1 under the order key."""
    if not p:
        return p
    lc = leading(p, key)[1]
    return Poly(p.nvars, {e: Q(c) / lc for e, c in p.terms.items()})


def oracle_normal_form(p, basis, key):
    """The seed's remainder of p on division by the basis: every step builds
    new polynomials, leading terms are recomputed each time."""
    remainder = Poly(p.nvars)
    leads = [(g, leading(g, key)) for g in basis if g]
    work = p
    while work:
        exps, coeff = leading(work, key)
        for g, (ge, gc) in leads:
            if _divides(ge, exps):
                work = poly_difference(
                    work, term_mul(g, Q(coeff) / gc, _mono_div(exps, ge)))
                break
        else:
            mono = Poly(p.nvars, {exps: coeff})
            remainder = poly_sum(remainder, mono)
            work = poly_difference(work, mono)
    return remainder


def oracle_s_polynomial(f, g, key):
    """The seed's S-polynomial: f / lc(f) and g / lc(g), each shifted up to
    the lcm of the leading monomials, subtracted."""
    fe, fc = leading(f, key)
    ge, gc = leading(g, key)
    lcm = _mono_lcm(fe, ge)
    return poly_difference(term_mul(f, Q(1) / fc, _mono_div(lcm, fe)),
                           term_mul(g, Q(1) / gc, _mono_div(lcm, ge)))


def buchberger_groebner_basis(ideal, ordering: str = "grevlex"):
    """The seed's reduced Groebner basis: a plain Buchberger loop that picks
    the smallest-lcm pair by a scan over all pairs, recomputing every
    leading monomial each time, with the coprimality and chain criteria."""
    key = order_key(ordering)
    basis = [normalized(g) for g in generator_polys(ideal)]
    basis.sort(key=lambda g: key(leading(g, key)[0]))
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}

    def lcm_of(i, j):
        return _mono_lcm(leading(basis[i], key)[0], leading(basis[j], key)[0])

    while pairs:
        i, j = min(pairs, key=lambda ij: (key(lcm_of(*ij)), ij))
        pairs.discard((i, j))
        fe = leading(basis[i], key)[0]
        ge = leading(basis[j], key)[0]
        lcm = _mono_lcm(fe, ge)
        if _mono_mul(fe, ge) == lcm:
            continue  # coprime leading monomials
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leading(basis[k], key)[0], lcm) \
                    and (min(i, k), max(i, k)) not in pairs \
                    and (min(j, k), max(j, k)) not in pairs:
                skip = True
                break
        if skip:
            continue
        remainder = oracle_normal_form(
            oracle_s_polynomial(basis[i], basis[j], key), basis, key)
        if remainder:
            remainder = normalized(remainder)
            basis.append(remainder)
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))

    return _oracle_reduce_basis(basis, key)


def _oracle_reduce_basis(basis, key):
    """Minimalize then tail-reduce; output monic, sorted by leading monomial."""
    basis = [g for g in basis if g]
    basis.sort(key=lambda g: key(leading(g, key)[0]))
    minimal = []
    for g in basis:
        ge = leading(g, key)[0]
        if not any(_divides(leading(h, key)[0], ge) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        h = oracle_normal_form(g, others, key)
        assert h, "minimal basis element reduced to zero"
        reduced.append(monic(h, key))
    reduced.sort(key=lambda g: key(leading(g, key)[0]), reverse=True)
    return reduced


# The tuple engine: commalg's fraction-free Buchberger loop as it ran on
# exponent tuples and order-key tuples before monomials were packed into
# ints, with the final interreduction commalg no longer runs.  A reduced
# basis is unique up to scaling, so ``tuple_reduced_basis`` of any Groebner
# basis of an ideal is ``tuple_groebner_basis`` of it term for term.

def tuple_reducer(terms, key) -> tuple:
    """(leading monomial, leading coefficient, tail terms) of the primitive
    form of nonzero integer terms, leading coefficient positive."""
    g = gcd(*terms.values())
    terms = {e: c // g for e, c in terms.items()}
    lead = max(terms, key=key)
    sign = 1 if terms[lead] > 0 else -1
    return (lead, sign * terms[lead],
            tuple((e, sign * c) for e, c in terms.items() if e != lead))


def tuple_reduce(work, reducers, key):
    """Fraction-free full reduction of the integer terms ``work`` (consumed)
    by ``tuple_reducer`` triples, the first dividing reducer each time;
    returns (remainder, scale), remainder congruent to scale * work."""
    import heapq

    def heap_key(exps):
        degree, rest = key(exps)
        return (-degree, tuple(-x for x in rest))

    heap = [(heap_key(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        exps = heapq.heappop(heap)[1]
        coeff = work.pop(exps, 0)
        if not coeff:
            continue
        for ge, gc, gtail in reducers:
            if _divides(ge, exps):
                d = gcd(coeff, gc)
                a, b = gc // d, coeff // d
                if a != 1:
                    scale *= a
                    for e in work:
                        work[e] *= a
                    for e in remainder:
                        remainder[e] *= a
                shift = _mono_div(exps, ge)
                for e, c in gtail:
                    m = _mono_mul(e, shift)
                    old = work.get(m)
                    if old is None:
                        work[m] = -b * c
                        heapq.heappush(heap, (heap_key(m), m))
                    elif old - b * c:
                        work[m] = old - b * c
                    else:
                        del work[m]
                break
        else:
            remainder[exps] = coeff
    return remainder, scale


def tuple_s_polynomial(f, g) -> dict:
    """Integer S-polynomial of two ``tuple_reducer`` triples."""
    fe, fc, ftail = f
    ge, gc, gtail = g
    lcm_fg = _mono_lcm(fe, ge)
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    out = {_mono_mul(e, _mono_div(lcm_fg, fe)): a * c for e, c in ftail}
    for e, c in gtail:
        m = _mono_mul(e, _mono_div(lcm_fg, ge))
        acc = out.get(m, 0) - b * c
        if acc:
            out[m] = acc
        else:
            del out[m]
    return out


def tuple_groebner_basis(ideal, ordering: str = "grevlex"):
    """Reduced Groebner basis as primitive integer Polys with positive
    leading coefficients, largest leading monomial first."""
    import heapq

    key = order_key(ordering)
    basis = sorted((tuple_reducer(dict(g), key) for g in ideal.generators),
                   key=lambda r: key(r[0]))
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    heap = [(key(_mono_lcm(basis[i][0], basis[j][0])), (i, j)) for i, j in pairs]
    heapq.heapify(heap)
    while heap:
        _, (i, j) = heapq.heappop(heap)
        pairs.discard((i, j))
        fe, ge = basis[i][0], basis[j][0]
        lcm_fg = _mono_lcm(fe, ge)
        if _mono_mul(fe, ge) == lcm_fg:
            continue
        if any(k != i and k != j and _divides(lk, lcm_fg)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (lk, _, _) in enumerate(basis)):
            continue
        remainder, _ = tuple_reduce(tuple_s_polynomial(basis[i], basis[j]),
                                    basis, key)
        if remainder:
            new = len(basis)
            basis.append(tuple_reducer(remainder, key))
            for k in range(new):
                pairs.add((k, new))
                heapq.heappush(heap, (key(_mono_lcm(basis[k][0], basis[new][0])),
                                      (k, new)))
    return _tuple_interreduced(basis, key, ideal.nvars)


def tuple_reduced_basis(basis, ordering: str = "grevlex"):
    """The reduced Groebner basis of the ideal that the Groebner basis
    generates, given as ``groebner_basis`` returns it, in the form
    ``tuple_groebner_basis`` returns."""
    key = order_key(ordering)
    reducers = [tuple_reducer(dict(g), key) for g in basis]
    return _tuple_interreduced(reducers, key, len(reducers[0][0]))


def _tuple_interreduced(basis, key, nvars):
    """Minimalize then tail-reduce the ``tuple_reducer`` triples of a
    Groebner basis; primitive integer Polys with positive leading
    coefficients, largest leading monomial first."""
    minimal = []
    for r in sorted(basis, key=lambda r: key(r[0])):
        if not any(_divides(h[0], r[0]) for h in minimal):
            minimal.append(r)
    reduced = []
    for idx, (lead, lc, tail) in enumerate(minimal):
        remainder, scale = tuple_reduce(dict(tail), minimal[:idx] + minimal[idx + 1:],
                                        key)
        remainder[lead] = lc * scale
        g = gcd(*remainder.values())
        reduced.append(Poly(nvars, {e: c // g for e, c in remainder.items()}))
    return reduced[::-1]


# The monomial Hilbert numerator and the pure-power test on exponent tuples,
# read off the leading monomials of ``commalg.groebner_basis``: the route by
# elimination that the quadric checks ran before they rested on the Cartan
# minors alone, and ground truth for the series those checks print.

def tuple_monomial_quotient_numerator(gens, nvars: int) -> list[int]:
    """Coefficients of the numerator N of the Hilbert series N(s)/(1-s)^nvars
    of R/I for the monomial ideal I generated by the exponent tuples, all
    variables of degree 1: pivot on the variable x in the most mixed
    generators, N(I) = N(I + (x)) + s * N(I : x), pure powers at the base."""
    gens = _tuple_minimalize(gens)
    if any(sum(g) == 0 for g in gens):
        return []  # ideal contains 1
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        out = [1]
        for d in (sum(g) for g in gens):
            out += [0] * d
            for k in range(len(out) - 1, d - 1, -1):
                out[k] -= out[k - d]
        return out
    counts = [sum(1 for g in mixed if g[v]) for v in range(nvars)]
    pivot_var = counts.index(max(counts))
    pivot = tuple(int(v == pivot_var) for v in range(nvars))
    out = tuple_monomial_quotient_numerator(gens + [pivot], nvars)
    n_colon = tuple_monomial_quotient_numerator(
        [tuple(max(e - p, 0) for e, p in zip(g, pivot)) for g in gens], nvars)
    out += [0] * (len(n_colon) + 1 - len(out))
    for k, c in enumerate(n_colon, 1):
        out[k] += c
    return out


def _tuple_minimalize(gens):
    out = []
    for g in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return out


def tuple_pure_power_variables(leads, nvars: int) -> list[bool]:
    """Per variable v, whether some exponent tuple is x_v^d with d > 0."""
    return [any(e[v] and sum(e) == e[v] for e in leads) for v in range(nvars)]


def basis_leads(ideal):
    """The leading exponent tuples of ``commalg.groebner_basis`` of the
    ideal."""
    from petcoh.commalg import groebner_basis

    return leading_exponents(groebner_basis(ideal))


def hilbert_series_of_quotient(ideal):
    """The series of the quotient by the ideal, all variables of degree 2,
    as a ``commalg.HilbertSeries``: the numerator of its leading-term ideal
    (``tuple_monomial_quotient_numerator``) with s -> s^2, over
    (1 - s^2)^nvars."""
    from petcoh.commalg import HilbertSeries

    numerator = tuple_monomial_quotient_numerator(basis_leads(ideal), ideal.nvars)
    return HilbertSeries.over_one_minus_s2(
        [c for coeff in numerator for c in (coeff, 0)], ideal.nvars)


def ideal_zero_set_is_origin(ideal) -> bool:
    """For a homogeneous ideal: the affine zero set is {0} iff the quotient
    is finite dimensional, i.e. the leading-term ideal contains a pure
    power of every variable, which holds iff a lead of the basis is one
    (``tuple_pure_power_variables``)."""
    if not all(g.is_homogeneous() for g in generator_polys(ideal)):
        raise ValueError("zero-set criterion requires homogeneous generators")
    return all(tuple_pure_power_variables(basis_leads(ideal), ideal.nvars))


def principal_minors_positive(cartan) -> bool:
    """The minors route of the ``zero_set`` check as commalg ran it before
    it symmetrized the Cartan matrix: every principal submatrix, one per
    nonempty subset of the nodes, has positive leading minors, so every
    principal minor is positive."""
    from petcoh.commalg import leading_minors_positive

    n = cartan.rank
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[cartan.entries[r][c] for c in idx] for r in idx]
        if idx and not leading_minors_positive(sub):
            return False
    return True


# The regular-sequence check by the Hilbert-series criterion, as commalg ran
# it before the check rested on the Cartan minors: it builds the ideal of
# the sequence itself, J + (t) for the whole sequence, and reads its series
# off that ideal's own basis.  Ground truth for ``cli._check_regular_sequence``.

def variable(nvars: int, index: int):
    """The variable of the given index as a ``Poly``."""
    exps = tuple(1 if k == index else 0 for k in range(nvars))
    return Poly(nvars, {exps: 1})


def total_degree(p) -> int:
    return max((sum(e) for e in p.terms), default=-1)


def graded_degree(p) -> int:
    """Cohomological degree: twice the total degree."""
    return 2 * total_degree(p)


def is_regular_sequence(var_names, polys):
    """Hilbert-series criterion: the sequence is regular iff the quotient
    series equals F(R) * prod_k (1 - s^(deg theta_k)).

    Returns (flag, certificate) where the certificate carries both series.
    """
    from petcoh.commalg import HilbertSeries, Ideal, _one_minus_product

    var_names = tuple(var_names)
    for p in polys:
        if not p.is_homogeneous() or total_degree(p) < 1:
            raise ValueError("regular-sequence input must be homogeneous of "
                             "positive degree")
    ideal = Ideal(var_names, tuple(p.terms for p in polys))
    actual = hilbert_series_of_quotient(ideal)
    degrees = [graded_degree(p) for p in polys]
    expected = HilbertSeries.over_one_minus_s2(_one_minus_product(degrees),
                                               len(var_names))
    flag = actual == expected
    certificate = {
        "computed_series": actual.to_json(),
        "expected_series": expected.to_json(),
        "degrees": degrees,
    }
    return flag, certificate
