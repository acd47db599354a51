"""Localization values, restriction to the circle, and the word-independence
property suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petcoh import billey
from petcoh.billey import (
    billey_localization,
    inversion_roots,
    localization_table,
    restricted_rows,
    second_word_failures,
    subset_steps,
)
from petcoh.cli import DEFAULT_SUITE
from petcoh.errors import IntegrityError
from petcoh.roots import cartan_matrix
from petcoh.weyl import WeylGroup

from oracles import (
    Poly,
    bond_order,
    bruhat_leq,
    elements_up_to_length,
    enumerate_reduced_words,
    from_word,
    is_monomial_of_degree,
    linear_poly,
    localized_rows,
    as_term_list,
    longest_element,
    matrix_inversion_roots,
    matrix_restricted_rows,
    matrix_subset_steps,
    node_set,
    poly_product,
    poly_sum,
    restrict_to_S,
    subword_localization,
    v_K,
)


def group(name):
    return WeylGroup(cartan_matrix(name))


def alpha(n, i):
    return linear_poly(tuple(1 if k == i - 1 else 0 for k in range(n)))


# -- fixed values ------------------------------------------------------------

@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "F4"])
def test_diagonal_rank_one(name):
    W = group(name)
    for i in W.cartan.nodes():
        s_i = from_word(W, (i,))
        assert billey_localization(W, s_i, s_i) == alpha(W.rank, i).terms


def test_vanishing_off_diagonal_rank_one():
    W = group("A2")
    s1, s2 = from_word(W, (1,)), from_word(W, (2,))
    assert not billey_localization(W, s1, s2)
    assert restrict_to_S(billey_localization(W, s1, s2)) == Poly(1)


@pytest.mark.parametrize("name,i,j", [("A2", 1, 2), ("A2", 2, 1),
                                      ("A3", 2, 3), ("B3", 1, 2)])
def test_order_three_closed_form(name, i, j):
    # for a bond of order 3: sigma_{s_i}(s_i s_j s_i) = a*alpha_i - a_ij*alpha_j
    W = group(name)
    cm = W.cartan
    assert bond_order(cm, i, j) == 3
    w = from_word(W, (i, j, i))
    a_ij, a_ji = cm.a(i, j), cm.a(j, i)
    a = a_ij * a_ji
    expected = Poly(
        W.rank,
        {tuple(1 if k == i - 1 else 0 for k in range(W.rank)): a,
         tuple(1 if k == j - 1 else 0 for k in range(W.rank)): -a_ij})
    assert billey_localization(W, from_word(W, (i,)), w) == expected.terms
    assert restrict_to_S(billey_localization(W, from_word(W, (i,)), w)) \
        == Poly(1, {(1,): a - a_ij})


@pytest.mark.parametrize("i,j", [(1, 2), (2, 1)])
def test_order_four_closed_form(i, j):
    # same closed form for the order-4 bond, at w = (s_i s_j)^2
    W = group("B2")
    cm = W.cartan
    w = from_word(W, (i, j, i, j))
    assert w == longest_element(W, (1, 2))
    a = cm.a(i, j) * cm.a(j, i)
    value = billey_localization(W, from_word(W, (i,)), w)
    assert restrict_to_S(value) == Poly(1, {(1,): a - cm.a(i, j)})


@pytest.mark.parametrize("i,j", [(1, 2), (2, 1)])
def test_order_six_closed_form(i, j):
    # G2: sigma_{s_i}((s_i s_j)^3) = 4*alpha_i - 2*a_ij*alpha_j
    W = group("G2")
    cm = W.cartan
    w = from_word(W, (i, j) * 3)
    assert w == longest_element(W, (1, 2))
    a_ij = cm.a(i, j)
    n = W.rank
    expected = Poly(
        n,
        {tuple(1 if k == i - 1 else 0 for k in range(n)): 4,
         tuple(1 if k == j - 1 else 0 for k in range(n)): -2 * a_ij})
    assert billey_localization(W, from_word(W, (i,)), w) == expected.terms
    assert restrict_to_S(expected.terms) == Poly(1, {(1,): 4 - 2 * a_ij})


def test_restriction_substitutes_t():
    p = alpha(3, 1)
    assert restrict_to_S(p.terms) == Poly(1, {(1,): 1})
    q = poly_product(alpha(2, 1), alpha(2, 2))
    assert restrict_to_S(q.terms) == Poly(1, {(2,): 1})
    assert restrict_to_S({}) == Poly(1)


# -- property sweep ----------------------------------------------------------

def _sweep(name, max_length):
    W = group(name)
    elements = elements_up_to_length(W, max_length)
    for w in elements:
        inv = inversion_roots(W, w)
        assert len(inv) == w.length
        diag = billey_localization(W, w, w)
        assert diag  # product of positive roots, never zero
        for v in elements:
            value = billey_localization(W, v, w)
            # degree and positivity
            assert {sum(e) for e in value} <= {v.length}
            assert all(c > 0 for c in value.values())
            # vanishing exactly off the Bruhat interval
            assert bool(value) == bruhat_leq(W, v, w)
            # independence of the reduced word chosen for w
            for word in enumerate_reduced_words(W, w):
                assert billey_localization(W, v, from_word(W, word)) == value


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_welldefinedness_rank_two_full_group(name):
    # longest elements have length <= 6, so this covers every w
    _sweep(name, 6)


def test_welldefinedness_A3_full_group():
    _sweep("A3", 6)


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_welldefinedness_rank_three_length_eight(name):
    _sweep(name, 8)


# -- prefix recursion against the subword oracle ------------------------------

_LETTERS = st.integers(1, 8)  # folded onto the nodes of the drawn type


def _element(W, letters):
    return from_word(W, (1 + (x - 1) % W.rank for x in letters))


@pytest.mark.parametrize("name", DEFAULT_SUITE)
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(w_letters=st.lists(_LETTERS, max_size=12),
       v_letters=st.lists(st.lists(_LETTERS, max_size=4), min_size=1, max_size=3))
def test_prefix_recursion_matches_subword_oracle(name, w_letters, v_letters):
    W = group(name)
    w = _element(W, w_letters)
    vs = [_element(W, letters) for letters in v_letters]
    assert inversion_roots(W, w) == matrix_inversion_roots(W.cartan, w.witness_word)
    table = localization_table(W, vs, w)
    for v in vs:
        value = billey_localization(W, v, w)
        oracle = subword_localization(W, v, w)
        assert value == oracle.terms
        assert table[v] == value
        assert is_monomial_of_degree(restrict_to_S(oracle.terms), v.length)


ROW_TYPES = DEFAULT_SUITE + ("A2+A1", "D5", "E6", "E7", "E8")


@pytest.mark.parametrize("name", ROW_TYPES)
def test_restricted_table_is_the_restricted_poly_table(name):
    # the rows, the recursion on root heights over the subset steps inside
    # each K, against one full polynomial table of every v_J per fixed
    # point w_L, restricted to t; rows and columns by mask
    cartan = cartan_matrix(name)
    rows = restricted_rows(cartan, subset_steps(cartan))
    assert all(type(c) is int for row in rows for c in row)
    assert rows == localized_rows(group(name))


@pytest.mark.parametrize("name", ROW_TYPES)
def test_subset_steps_follow_the_dynkin_rule(name):
    # s_b is a right descent of v_J exactly when b is in J and no larger
    # neighbour of b is, and then v_J s_b = v_{J - b}
    cartan = cartan_matrix(name)
    nodes = cartan.nodes()

    def rule(J, b):
        return J >> b - 1 & 1 and not any(
            J >> c - 1 & 1 for c in nodes if c > b and cartan.a(b, c))

    assert subset_steps(cartan) == {
        b: [(J, J ^ 1 << b - 1) for J in range(1 << cartan.rank) if rule(J, b)]
        for b in nodes}


@pytest.mark.parametrize("name", ROW_TYPES)
def test_height_walk_matches_the_matrix_walk(name, monkeypatch):
    # the walk on heights against the walk on action matrices it replaced,
    # which runs every step of each letter where the heights run only the
    # steps inside K: the same steps and rows, and each ascent, in
    # increasing order of mask, ends at the heights of w_K, the column sums
    # of its matrix
    cartan = cartan_matrix(name)
    W = WeylGroup(cartan)
    subsets = [node_set(K) for K in range(1 << cartan.rank)]
    steps = subset_steps(cartan)
    assert steps == matrix_subset_steps(W)
    ends = []
    ascend = billey._ascend

    def recording(cartan, heights, K, steps, values):
        ends.append((K, ascend(cartan, heights, K, steps, values)))
        return ends[-1][1]

    monkeypatch.setattr(billey, "_ascend", recording)
    assert restricted_rows(cartan, steps) == matrix_restricted_rows(W, steps)
    assert ends == [(K, tuple(map(sum, zip(*longest_element(W, K).action))))
                    for K in subsets]


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A2+A1"])
def test_second_walk_spells_another_reduced_word_of_each_w_L(name,
                                                             monkeypatch):
    # the letters each ascent reflects, after the word of the element it
    # starts from: w_{L - max L} for the rows, w_{L - min L} for the
    # second walk.  Both words are reduced words of w_L; the rows' starts
    # with the smallest node of L and the second with the largest, so
    # they differ wherever L has two nodes
    cartan = cartan_matrix(name)
    W = WeylGroup(cartan)
    steps = subset_steps(cartan)
    letters = []
    reflect, ascend = billey._reflect, billey._ascend

    def recording(heights, b, updates):
        letters[-1].append(b)
        return reflect(heights, b, updates)

    def starting(*args):
        letters.append([])
        return ascend(*args)

    monkeypatch.setattr(billey, "_reflect", recording)
    monkeypatch.setattr(billey, "_ascend", starting)
    rows = restricted_rows(cartan, steps)
    second_word_failures(cartan, steps, rows)
    monkeypatch.undo()
    size = 1 << cartan.rank
    first, second = [()], [()]
    for L in range(1, size):
        first.append(first[L ^ 1 << L.bit_length() - 1] + tuple(letters[L]))
        second.append(second[L & L - 1] + tuple(letters[size + L - 1]))
    for L in range(1, size):
        w_L = longest_element(W, node_set(L))
        for word in (first[L], second[L]):
            assert len(word) == w_L.length and from_word(W, word) == w_L
        assert (first[L][0], second[L][0]) == (min(node_set(L)),
                                               max(node_set(L)))


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A2+A1"])
def test_every_reduced_word_of_w_L_restricts_to_its_column(name):
    # Billey's theorem on the rows themselves: the polynomial table of every
    # reduced word of each fixed point w_L, restricted to t, is column L of
    # the walked rows, at every v_J
    cartan = cartan_matrix(name)
    W = WeylGroup(cartan)
    rows = restricted_rows(cartan, subset_steps(cartan))
    targets = [v_K(W, node_set(J)) for J in range(1 << cartan.rank)]
    for L in range(1 << cartan.rank):
        column = [row[L] for row in rows]
        for word in enumerate_reduced_words(W, longest_element(W, node_set(L))):
            table = localization_table(W, targets, from_word(W, word))
            assert [restrict_to_S(table[v]).terms.get((v.length,), 0)
                    for v in targets] == column, (name, word)


def test_non_positive_inversion_root_is_an_integrity_error(monkeypatch):
    # the root (1, 1) of A2's w_0 = s_1 s_2 s_1, r(2, w) = s_1(alpha_2),
    # read as not positive: the localization stops on it
    W = group("A2")
    monkeypatch.setattr(billey, "is_positive_root_vector",
                        lambda root: root != (1, 1))
    with pytest.raises(IntegrityError,
                       match=r"^r\(i, w\) = \(1, 1\) is not a positive root$"):
        billey_localization(W, from_word(W, (1,)), from_word(W, (1, 2, 1)))


# (K, J, number of terms of sigma_{v_K}(w_J), c with p_{v_K}(w_J) = c t^|K|);
# pinned from the subword scan.  The last three have K not inside J.
E6_SPOT_VALUES = [
    ((2, 4), (2, 3, 4, 5), 10, 30),
    ((3, 4, 5), (2, 3, 4, 5), 19, 60),
    ((1, 3), (1, 3), 2, 2),
    ((2, 4, 5), (1, 2, 3, 4, 5), 34, 300),
    ((1, 3, 4), (1, 2, 3, 4, 5, 6), 56, 3360),
    ((2, 3, 4, 5), (1, 2, 3, 4, 5, 6), 126, 69300),
    ((1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), 461, 887040),
    ((1, 6), (1, 3, 4, 5), 0, 0),
    ((2,), (1, 3, 4, 5, 6), 0, 0),
    ((1, 2, 3), (2, 3, 4, 5, 6), 0, 0),
]


@pytest.mark.parametrize("K,J,terms,c", E6_SPOT_VALUES)
def test_e6_spot_values(K, J, terms, c):
    W = group("E6")
    v, w = v_K(W, K), longest_element(W, J)
    value = billey_localization(W, v, w)
    assert len(value) == terms
    expected = Poly(1, {(len(K),): c})
    assert restrict_to_S(value) == expected
    if len(K) <= 3:
        assert value == subword_localization(W, v, w).terms


@pytest.mark.parametrize("K", [(1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 7)])
def test_e7_localization_at_longest_element(K):
    # the subword scan would visit C(63, 6) = 67.9M position sets here
    W = group("E7")
    w0 = longest_element(W, W.cartan.nodes())
    reversed_w0 = from_word(W, tuple(reversed(w0.witness_word)))
    assert reversed_w0 == w0
    assert reversed_w0.witness_word != w0.witness_word
    v = v_K(W, K)
    value = billey_localization(W, v, w0)
    assert {sum(e) for e in value} == {6}
    assert billey_localization(W, v, reversed_w0) == value


# -- container behaviour -------------------------------------------------------

def test_root_polynomial_serialization():
    p = poly_sum(poly_sum(alpha(2, 1), alpha(2, 2)), alpha(2, 2))
    assert as_term_list(p) == [[[1, 0], 1, 1], [[0, 1], 2, 1]]


def test_tpolynomial_homogeneity_helpers():
    assert is_monomial_of_degree(Poly(1, {(2,): 5}), 2)
    assert not is_monomial_of_degree(Poly(1, {(0,): 1, (2,): 5}), 2)
    assert is_monomial_of_degree(Poly(1), 7)
