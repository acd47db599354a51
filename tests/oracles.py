"""Independent brute-force oracles used to pin expected values in the tests.

Nothing in here is imported by the package itself.  Each oracle recomputes a
quantity from first principles (Euclidean root coordinates, raw word
enumeration, power-series division) so that the package's own code paths are
checked against something they do not share.
"""

from __future__ import annotations

import itertools
import re
import weakref
from fractions import Fraction as Q
from functools import lru_cache, partial, reduce
from math import factorial, gcd, lcm
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
    return [Poly(len(ideal.var_names), g) for g in ideal.generators]


# the Lie-type parse as a regular expression, as ``roots.parse_lie_type``
# ran before it parsed with string methods.  ASCII digits only: \d would
# also read "A\u0663" as A3
_TYPE_RE = re.compile(r"^([A-G])([0-9]+)$")


def regex_parse_lie_type(text: str):
    """``roots.parse_lie_type`` by ``_TYPE_RE``: the same ``LieType``s, or
    the same ``ValueError``."""
    from petcoh.roots import LieType

    parts = [p.strip() for p in text.strip().split("+")]
    types = []
    for part in parts:
        m = _TYPE_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse Lie type {part!r} (expected e.g. 'A3')")
        types.append(LieType(m.group(1), int(m.group(2))))
    return tuple(types)


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


def descents(group, action) -> list[int]:
    """Right descents of a matrix: the i with l(w s_i) < l(w), i.e.
    the root w(alpha_i), column i, has a negative entry."""
    return [i for i, column in zip(group.cartan.nodes(), zip(*action))
            if min(column) < 0]


def right_multiply(group, w, i: int):
    """w s_i with a reduced witness word: w's word then i on an ascent; on
    a right descent, w's word less the letter the exchange condition
    deletes, the first position p from the right of w's word b_1..b_m
    with s_{b_{p+1}}..s_{b_m}(alpha_i) = alpha_{b_p}."""
    from petcoh.roots import simple_reflection_action
    from petcoh.weyl import WeylElement

    action, word = group.right_action(w.action, i), w.witness_word
    if i not in descents(group, w.action):
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
    while ascents := [i for i in nodes if i not in descents(group, w.action)]:
        w = right_multiply(group, w, ascents[0])
    return w


def mask(K) -> int:
    """The bitmask of the node set K, node i being bit i - 1: the index of
    its row and of its fixed point in the model's rows."""
    return sum(1 << i - 1 for i in set(K))


def node_set(L: int) -> tuple[int, ...]:
    """The nodes of the bitmask L, in node order."""
    return tuple(i for i in range(1, L.bit_length() + 1) if L >> i - 1 & 1)


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


class EnumerationCapError(RuntimeError):
    """A reference enumeration would exceed its cap; nothing was truncated."""


# the most elements ``elements_up_to_length`` may produce
ELEMENT_CAP = 200_000

# per group: action -> the set of its reduced words
_words_memo = weakref.WeakKeyDictionary()


def enumerate_reduced_words(group, w, cap=16) -> frozenset:
    """The full set of reduced words for w: a reduced word ends in a right
    descent i of w, and deleting that letter leaves a reduced word of
    w s_i, so the words are listed by recursing on action matrices over the
    right descents.  The reference word set for the reduced-word counts of
    the v_K and for the tables of every reduced word of each w_L.

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
                prefix + (i,) for i in descents(group, action)
                for prefix in rec(group.right_action(action, i)))
        return words

    return rec(w.action)


def elements_up_to_length(group, max_length: int):
    """All elements of length <= max_length, BFS order (layer by layer):
    one ``right_multiply`` per ascent, keeping the new products.  Raises
    EnumerationCapError past ``ELEMENT_CAP`` elements."""
    seen = {group.identity.action}
    layer = [group.identity]
    out = [group.identity]
    for _ in range(max_length):
        nxt = []
        for w in layer:
            for i in group.cartan.nodes():
                if i not in descents(group, w.action):
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


def set_connected_components(cartan, nodes) -> list[tuple[int, ...]]:
    """The connected components of the Dynkin diagram on ``nodes``, each a
    sorted tuple, in order of their smallest node: a breadth-first search
    over sets of nodes, seeded at the smallest node not yet reached, as
    ``CartanMatrix.connected_components`` found them before the model kept
    a table by mask.  Ground truth for ``PetersonModel._components``."""
    remaining = set(nodes)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in list(remaining - comp):
                if u != v and cartan.a(v, u):
                    comp.add(u)
                    frontier.append(u)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return comps


def length_of_matrix(group, action) -> int:
    """Inversion count: positive roots whose image under the action matrix
    is negative."""
    count = 0
    for beta in group.cartan.positive_roots():
        img = [sum(row[k] * beta[k] for k in range(group.rank)) for row in action]
        if all(x <= 0 for x in img):
            count += 1
    return count


def quadratic_combination(model, i: int) -> tuple[int, ...]:
    """sum_j <alpha_i, alpha_j> p_{s_i} p_{s_j} - 2 t p_{s_i}, of degree 2,
    as its row: theta_i written out from the Cartan matrix, apart from
    ``commalg.build_ideal_J``, as ground truth for ``quadric_rows``."""
    p_i = model.simple_class(i)
    terms = [(a_ij, model.simple_class(j)) for j in model.cartan.nodes()
             if (a_ij := model.cartan.a(i, j))]
    return tuple(c * (sum(a_ij * p_j[L] for a_ij, p_j in terms) - 2)
                 for L, c in enumerate(p_i))


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


def list_expansion_failures(table, points, k, covers, simple) -> list[int]:
    """The positions in ``simple`` whose Monk expansion of row k fails,
    as ``peterson._expansion_failures`` decided them before it gathered
    D r_k once per k: per p, one residual list D (p[L] - p[k]) r_k[L] over
    the sorted points (the kernel's own), and one new list per cover J with
    a nonzero step, read off r_J; a J with num_J den_J < 0 fails the
    identity.  Ground truth for the kernel on any rows and points, doctored
    rows included; a zero den_J raises ``ZeroDivisionError`` with the first
    such J."""
    row = table[k]
    diagonals = [table[j][j] for j in covers]
    D = lcm(*diagonals)
    if not D:
        raise ZeroDivisionError(covers[diagonals.index(0)])
    points = sorted(points)
    terms = [(j, table[j], row[j] * den, D // den * row[j])
             for j, den in zip(covers, diagonals) if row[j]]
    failing = []
    for position, p in enumerate(simple):
        base = p[k]
        residual = [D * (p[L] - base) * row[L] for L in points]
        for j, r_J, sign, scale in terms:
            step = p[j] - base
            if step * sign < 0:  # num_J den_J < 0
                break
            if step:
                m = scale * step
                residual = [x - m * r_J[L] for x, L in zip(residual, points)]
        else:
            if not any(residual):
                continue
        failing.append(position)
    return failing


def fraction_verify_monk(model, i: int, K):
    """One Monk identity, Drellich's formula for p_{s_i} p_{v_K} on the
    rows, summed in Fractions at every fixed point:

        p_{s_i} p_{v_K} = p_{s_i}(w_K) p_{v_K} + sum_J c_J p_{v_J},
        c_J = (p_{s_i}(w_J) - p_{s_i}(w_K)) p_{v_K}(w_J) / p_{v_J}(w_J),

    over the covers J = K + j, j not in K, in node order.  Both sides are
    an integer times t^(|K| + 1) at every fixed point, so they are
    compared at t = 1.  The record passes iff the identity holds and every
    c_J >= 0; a zero p_{v_J}(w_J) is the model's ``IntegrityError``.
    Ground truth for ``monk_failures`` and ``monk_coefficient``."""
    from petcoh.errors import IntegrityError
    from petcoh.report import CheckRecord

    K = tuple(sorted(set(K)))
    k = mask(K)
    p_i, p_K = model.simple_class(i), model.subset_class(K)
    rhs = [p_i[k] * x for x in p_K]
    coeffs = []
    for j in model.cartan.nodes():
        if j in K:
            continue
        J = tuple(sorted(K + (j,)))
        at, p_J = mask(J), model.subset_class(J)
        if not p_J[at]:
            raise IntegrityError(
                f"Monk division by zero for i={i}, K={K}, J={J}")
        c = Q((p_i[at] - p_i[k]) * p_K[at], p_J[at])
        coeffs.append({"J": list(J), "coefficient": c})
        if c:  # a zero entry of p_{v_J} adds nothing
            rhs = [r + c * x if x else r for r, x in zip(rhs, p_J)]
    holds = [a * b for a, b in zip(p_i, p_K)] == rhs
    nonneg = all(item["coefficient"] >= 0 for item in coeffs)
    return CheckRecord(
        check="monk",
        lie_type=model.type_name(),
        passed=holds and nonneg,
        parameters={"i": i, "K": list(K)},
        witnesses={
            "coefficients": coeffs,
            "identity_holds": holds,
            "coefficients_nonnegative": nonneg,
        },
    )


def fraction_check_monk(model):
    """The ``monk`` record: every identity (i, K) by
    ``fraction_verify_monk``, i in node order and then K in subset order,
    and the Cartan cross-check c = -a(i, j) on the coefficient of
    p_{s_i} p_{s_i} on p_{v_{ij}}, read off the identities of K = {i}."""
    from petcoh.report import CheckRecord

    cartan = model.cartan
    nodes = cartan.nodes()
    failures, cross = [], []
    for i in nodes:
        for K in model.subsets:
            record = fraction_verify_monk(model, i, K)
            if not record.passed:
                failures.append({"i": i, "K": list(K)})
            if K == (i,):
                cross += [(i, j, item["coefficient"])
                          for item in record.witnesses["coefficients"]
                          for j in item["J"] if j != i]
    cross_ok = all(c == -cartan.a(i, j) for i, j, c in cross)
    return CheckRecord(
        check="monk",
        lie_type=model.type_name(),
        passed=not failures and cross_ok,
        parameters={"identities_checked": len(nodes) * len(model.subsets)},
        witnesses={
            "failures": failures,
            "cartan_cross_check": [
                {"i": i, "j": j, "coefficient": fraction_text(c),
                 "expected": -cartan.a(i, j)} for i, j, c in cross],
            "cartan_cross_check_ok": cross_ok,
        },
    )


def fraction_verify_giambelli(model, K) -> tuple[int, bool]:
    """Giambelli's formula for a nonempty K on the rows, in Fractions:
    (|K|! / #words(v_K)) p_{v_K} = prod_{i in K} p_{s_i} at every fixed
    point, #words(v_K) counted by ``enumerate_reduced_words``.  Both sides
    are an integer times t^|K| at every fixed point, so they are compared
    at t = 1.  For a disconnected K the formula is the product of those of
    its connected components.  Returns (#words(v_K), whether it holds):
    ground truth for ``giambelli_holds``."""
    K = tuple(sorted(set(K)))
    n_words = len(enumerate_reduced_words(model.group, v_K(model.group, K)))
    coeff = Q(factorial(len(K)), n_words)
    rhs = _row_product(model.simple_class(i) for i in K)
    return n_words, [coeff * x for x in model.subset_class(K)] == list(rhs)


def fraction_check_giambelli(model):
    """The ``giambelli`` record: the row of () against the row of 1, and
    every nonempty K by ``fraction_verify_giambelli``, a connected K
    (``is_connected``) listed with its coefficient, a disconnected one
    with its components."""
    from petcoh.report import CheckRecord

    cartan = model.cartan
    failures = [] if set(model.subset_class(())) == {1} else \
        [{"kind": "unit", "K": []}]
    coefficients, products = [], []
    for K in model.subsets[1:]:
        n_words, holds = fraction_verify_giambelli(model, K)
        if is_connected(cartan, K):
            coefficients.append({
                "K": list(K),
                "coefficient": fraction_text(Q(factorial(len(K)), n_words)),
                "reduced_words": n_words})
            kind = "giambelli"
        else:
            products.append({"K": list(K), "components": [
                list(C) for C in set_connected_components(cartan, K)]})
            kind = "disconnected_product"
        if not holds:
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


def scanned_off_support(rows):
    """The (K, L), in mask order, where row K of ``rows`` is nonzero though
    L lacks a node of K, found by reading every entry: ground truth for
    ``PetersonModel._off_support``, which reads a row at every point only
    when its count of zeros says it must."""
    return [(K, L) for K, row in enumerate(rows)
            for L, c in enumerate(row) if c and K & ~L]


def verify_basis_by_sets(model):
    """The ``basis`` record with the support condition decided by
    ``set(K) <= set(J)`` for every pair of subsets, on the basis matrix
    p_{v_K}(w_J) with rows and columns in (size, bitmask) order, read by
    position: ground truth for ``verify_basis_triangular``, which reads
    the bitmasks."""
    from petcoh.report import CheckRecord

    rows = [[model.subset_class(K)[mask(J)] for J in model.subsets]
            for K in model.subsets]
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
    over all degrees.  Ground truth for the simple-row argument of
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


def localized_rows(group) -> tuple[tuple[int, ...], ...]:
    """Row J, column L: c with sigma_{v_J}(w_L)|_S = c t^|J|, J and L by
    mask (``mask``).  Each column is Billey's polynomial sigma_{v_J}(w_L)
    in the simple roots, one ``billey.localization_table`` of every v_J per
    fixed point w_L (its prefix recursion is checked against
    ``subword_localization``), with every simple root sent to t by
    ``restrict_to_S``; each restricted value must be one term c t^|J|.
    Ground truth for ``billey.restricted_rows`` and the model's rows."""
    from petcoh.billey import localization_table

    subsets = [node_set(L) for L in range(1 << group.rank)]
    targets = [v_K(group, J) for J in subsets]
    columns = []
    for L in subsets:
        table = localization_table(group, targets, longest_element(group, L))
        column = []
        for v in targets:
            value = restrict_to_S(table[v])
            assert is_monomial_of_degree(value, v.length), (v, L)
            column.append(value.terms.get((v.length,), 0))
        columns.append(column)
    return tuple(zip(*columns))


# The walk of the Peterson rows on action matrices, which ``billey`` ran
# before it carried the heights h_w alone, here with every step of each
# letter: ground truth for ``billey.subset_steps``, ``restricted_rows``
# (and its filter, the steps of ``_local_steps``) and ``_ascend``, which
# must give the same steps and rows.

def per_letter_local_steps(steps, L: int) -> dict[int, list]:
    """Per node b of the mask L, the steps (J, J - b) of ``steps[b]`` whose
    J lies inside L, in increasing order of J, found as ``billey`` found
    them before it grew L's steps from those of L - max L: per node b of
    L, every subset J of L that contains b, in increasing order, looked up
    in a map from J to b's step.  Ground truth for ``billey._local_steps``
    at every L."""
    local = {}
    for b, pairs in steps.items():
        bit = 1 << b - 1
        if not L & bit:
            continue
        by_J = {pair[0]: pair for pair in pairs}
        rest, found, sub = L ^ bit, [], 0
        while True:  # every subset of rest, increasing
            pair = by_J.get(sub | bit)
            if pair is not None:
                found.append(pair)
            if sub == rest:
                break
            sub = sub - rest & rest
        local[b] = found
    return local


def matrix_subset_steps(group) -> dict[int, list[tuple[int, int]]]:
    """Per letter b, (mask of J, mask of J - b) for every node set J with
    right descent b of v_J, by mask; node i is bit i - 1.  v_J is v_{J - m}
    s_m for the largest node m of J, and its descents are read off it."""
    from petcoh.errors import IntegrityError

    actions = [group.identity.action]
    steps: dict[int, list] = {b: [] for b in group.cartan.nodes()}
    for J in range(1, 1 << group.rank):
        top = J.bit_length()
        action = group.right_action(actions[J ^ 1 << top - 1], top)
        actions.append(action)
        for b in descents(group, action):
            lower = J ^ 1 << b - 1
            if not (lower < J and
                    group.right_action(action, b) == actions[lower]):
                raise IntegrityError(
                    f"v_J s_b is not v_(J - b) for J = {J:#b}, b = {b}")
            steps[b].append((J, lower))
    return steps


def matrix_restricted_rows(group, steps):
    """Row J, column L: c with sigma_{v_J}(w_L)|_S = c t^|J|, J and L by
    mask, along the descent steps ``steps``: one walk of the masks L in
    increasing order, the column of L resumed from the finished column and
    the action of w_{L - m}, m = max L.  Each letter runs every one of its
    steps, not only those inside L as ``billey.restricted_rows`` does: a
    column is 0 off the subsets of its L, so the others add 0, and the
    walk checks that filter rather than sharing it."""
    size = 1 << group.rank
    actions, columns = [], []
    for L in range(size):
        if L:
            lower = L ^ 1 << L.bit_length() - 1
            action, values = actions[lower], columns[lower].copy()
        else:
            action, values = group.identity.action, [1] + [0] * (size - 1)
        actions.append(_matrix_ascend(group, action, node_set(L), steps,
                                      values))
        columns.append(values)
    return tuple(zip(*columns))


def _matrix_ascend(group, action, K, steps, values: list):
    """The action of w_K, by greedy ascent over the nodes K (in node order,
    from the smallest after each letter) from ``action``, an element of W_K.
    Each letter b reads the root r = column b once, adds ht(r) times the
    value at J - b to the value at J over b's steps in ``values``, and
    makes one ``right_action``."""
    from petcoh.errors import IntegrityError
    from petcoh.roots import is_negative_root_vector, is_positive_root_vector

    while True:
        for b in K:
            root = [row[b - 1] for row in action]
            if not is_negative_root_vector(root):
                break
        else:
            return action
        root = tuple(root)  # as the error prints it
        if not is_positive_root_vector(root):
            raise IntegrityError(f"r(i, w) = {root} is not a positive root")
        height = sum(root)
        # b is an ascent of v_{J - b}, so no source changes in this step
        for J, lower in steps[b]:
            values[J] += height * values[lower]
        action = group.right_action(action, b)


def fraction_solve(rows, rhs) -> list[Q]:
    """The solution of rows x = rhs, by Gauss-Jordan elimination in
    Fractions with row exchanges."""
    m = [[Q(a) for a in row] + [Q(b)] for row, b in zip(rows, rhs)]
    n = len(m)
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n] for row in m]


def fundamental_weights(cartan) -> list[tuple[Q, ...]]:
    """The fundamental weights varpi_i in simple-root coordinates, as
    Fractions: <varpi_i, alpha_j^vee> = delta_ij with
    <alpha_k, alpha_j^vee> = cartan.a(k, j) gives A^T varpi_i = e_i, solved
    by Gauss-Jordan elimination (``fraction_solve``)."""
    nodes = cartan.nodes()
    transposed = [[cartan.a(k, j) for k in nodes] for j in nodes]
    return [tuple(fraction_solve(transposed, [int(j == i) for j in nodes]))
            for i in nodes]


def billey_welldef_per_word(model) -> list[dict]:
    """The failures of Billey's theorem (Duke Math. J. 96, 1999) on every
    w up to a length that shrinks with the rank, each w with one
    ``localization_table`` per reduced word, a full prefix recursion over
    that word: a value that vanishes off [e, w] (``bruhat_leq``) or is
    nonzero on it, or is not homogeneous of degree l(v), on w's witness
    word, and one that another word of w gives differently."""
    from petcoh.billey import localization_table
    from petcoh.weyl import word_to_str

    group = model.group
    max_len = {1: 6, 2: 6, 3: 5, 4: 4}.get(model.rank, 3)
    elements = elements_up_to_length(group, max_len)
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
                if table[v] != baseline[v]:
                    failures.append({"kind": "witness_dependence",
                                     "v": word_to_str(v.witness_word),
                                     "w_word": word_to_str(word)})
    return failures


def second_word_failures(cartan, steps, rows) -> list[int]:
    """Billey's theorem on the package's own walk: the masks L, in
    increasing order, whose column of ``rows`` (row J, column L, as
    ``billey.restricted_rows`` returns them) the recursion along a second
    reduced word of w_L does not reproduce.

    ``restricted_rows`` reaches w_L from w_{L - m}, m = max L, taking the
    smallest ascent first.  Here the column of L starts as the rows' own
    column of L - l, l = min L, restricted to the subsets J of L, and
    ascends from the heights of w_{L - l} over the nodes of L, largest
    first, with the package's ``_ascend`` over its ``_local_steps``.  That
    spells another reduced word of w_L, so by Billey's theorem the result
    is column L.  The empty L has the identity's column, 1 at J = 0 and 0
    elsewhere, where both walks start."""
    from petcoh import billey

    size = 1 << cartan.rank
    columns = tuple(zip(*rows))
    failing = [] if columns[0] == (1,) + (0,) * (size - 1) else [0]
    heights = [(1,) * cartan.rank]  # per mask L, the heights of w_L
    steps_by_L = billey._local_steps(steps, size)
    next(steps_by_L)  # the empty L's: none, as the empty L has no walk
    for L, local in enumerate(steps_by_L, 1):
        lower = L & L - 1  # L less its smallest node
        start, values = columns[lower], [0] * size
        values[0], J = start[0], L
        while J:  # every nonempty subset of L, decreasing
            values[J] = start[J]
            J = J - 1 & L
        K = tuple(b for b in range(L.bit_length(), 0, -1) if L >> b - 1 & 1)
        heights.append(billey._ascend(cartan, heights[lower], K, local, values))
        if tuple(values) != columns[L]:
            failing.append(L)
    return failing


def closed_form_table(cartan) -> tuple[tuple[int, ...], ...]:
    """Row K, column L, both by mask: p_{v_K}(w_L) / t^|K| by Drellich's
    Giambelli formula with the simple classes in closed form, e(K) / |K|!
    prod_{i in K} x_i for K inside L and 0 otherwise, where x solves
    A_L x = 2 (1, .., 1) in Fractions on the whole of L (block by block on
    its Dynkin components) and e(K) counts the reduced words of v_K
    (``enumerate_reduced_words``); every value must be an integer."""
    from petcoh.weyl import WeylGroup

    group = WeylGroup(cartan)
    n = cartan.rank
    size = 1 << n
    words = [len(enumerate_reduced_words(group, v_K(group, node_set(K))))
             for K in range(size)]
    table = [[0] * size for _ in range(size)]
    for L in range(size):
        nodes = node_set(L)
        x = dict(zip(nodes, fraction_solve(
            [[cartan.a(i, j) for j in nodes] for i in nodes], [2] * len(nodes))))
        for K in range(size):
            if K & ~L:
                continue
            value = Q(words[K], factorial(K.bit_count()))
            for i in node_set(K):
                value *= x[i]
            if value.denominator != 1:
                raise AssertionError(f"closed form {value} at K={K}, L={L}")
            table[K][L] = value.numerator
    return tuple(map(tuple, table))


def fraction_text(q: Q) -> str:
    """The report's "num/den" form of a rational, in the lowest terms and
    with the positive denominator that ``Fraction`` keeps."""
    return f"{q.numerator}/{q.denominator}"


def indented_json(value) -> str:
    """The text ``json.dumps`` writes at ``indent=2`` with sorted keys, once
    ``jsonable`` has made the keys strings (the last value of a repeated
    one kept) and the tuples lists: the path ``to_json`` took before its
    one-pass writer."""
    import json

    from petcoh.report import jsonable

    return json.dumps(jsonable(value), indent=2, sort_keys=True)


def monk_fraction(model, i: int, K, J) -> Q:
    """``PetersonModel.monk_coefficient``'s (num, den) pair as a Fraction."""
    return Q(*model.monk_coefficient(i, K, J))


# Monomial orders on exponent tuples, as order keys: grevlex is the order of
# ``commalg.groebner_basis``; the Fraction engine below takes either, so that
# a series read under grevlex can be recomputed under grlex.

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
    engine's fraction-free reduction ``commalg._reduce``: p and every
    divisor are cleared of their denominators, each divisor enters in the
    engine's primitive form (scaling a divisor leaves the remainder
    unchanged), and the integer remainder is divided by p's denominator
    and the reduction's scale."""
    from petcoh import commalg

    den, work = _cleared(p.terms)
    divisors = [commalg._reducer(_cleared(g.terms)[1]) for g in basis if g]
    remainder, scale = commalg._reduce(work, divisors)
    return Poly(p.nvars, {e: Q(c, den * scale) for e, c in remainder.items()})


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
    the smallest-lcm pair by a scan over all pairs, with the coprimality
    and chain criteria.  Each element's leading monomial is read once, when
    it joins the basis."""
    key = order_key(ordering)
    basis = [normalized(g) for g in generator_polys(ideal)]
    basis.sort(key=lambda g: key(leading(g, key)[0]))
    leads = [leading(g, key)[0] for g in basis]
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}

    while pairs:
        i, j = min(pairs, key=lambda ij: (
            key(_mono_lcm(leads[ij[0]], leads[ij[1]])), ij))
        pairs.discard((i, j))
        fe, ge = leads[i], leads[j]
        lcm = _mono_lcm(fe, ge)
        if _mono_mul(fe, ge) == lcm:
            continue  # coprime leading monomials
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(leads[k], lcm) \
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
            leads.append(leading(remainder, key)[0])
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


def monic_reduced_basis(basis):
    """The monic reduced grevlex basis of the ideal that a Groebner basis
    generates, the basis given as ``commalg.groebner_basis`` returns it:
    the Fraction oracle's own minimalization and tail reduction, so that it
    compares term for term with ``buchberger_groebner_basis``."""
    nvars = len(basis[0][0][0])
    return _oracle_reduce_basis([Poly(nvars, g) for g in basis], grevlex_key)


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


@lru_cache(maxsize=None)
def basis_leads(ideal):
    """The leading exponent tuples of ``commalg.groebner_basis`` of the
    ideal, computed once per ideal in a test process: the engine keeps no
    cache, and several tests read the leads of the E7 and E8 quadrics."""
    from petcoh.commalg import groebner_basis

    return tuple(leading_exponents(groebner_basis(ideal)))


def hilbert_series_of_quotient(ideal):
    """The series of the quotient by the ideal, all variables of degree 2,
    as a ``commalg.HilbertSeries``: the numerator of its leading-term ideal
    (``tuple_monomial_quotient_numerator``) with s -> s^2, over
    (1 - s^2)^nvars."""
    from petcoh.commalg import HilbertSeries

    numerator = tuple_monomial_quotient_numerator(basis_leads(ideal), len(ideal.var_names))
    return HilbertSeries.over_one_minus_s2(
        [c for coeff in numerator for c in (coeff, 0)], len(ideal.var_names))


def t_free(ideal):
    """The ideal with t, its last variable, set to zero, in the other
    variables; the generators that vanish are left out."""
    from petcoh.commalg import Ideal

    gens = ({e[:-1]: c for e, c in g if not e[-1]} for g in ideal.generators)
    return Ideal(ideal.var_names[:-1], tuple(g for g in gens if g))


def jcheck_ideal(cartan):
    """J-check, the t = 0 section of ``commalg.build_ideal_J``: the package
    builds no J-check ideal, and its minors route reads the same section
    off J's generators in place."""
    from petcoh.commalg import build_ideal_J

    return t_free(build_ideal_J(cartan))


def ideal_zero_set_is_origin(ideal) -> bool:
    """For a homogeneous ideal: the affine zero set is {0} iff the quotient
    is finite dimensional, i.e. the leading-term ideal contains a pure
    power of every variable, which holds iff a lead of the basis is one
    (``tuple_pure_power_variables``)."""
    if not all(g.is_homogeneous() for g in generator_polys(ideal)):
        raise ValueError("zero-set criterion requires homogeneous generators")
    return all(tuple_pure_power_variables(basis_leads(ideal), len(ideal.var_names)))


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
