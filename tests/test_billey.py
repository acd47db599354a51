"""Localization values, restriction to the circle, and the word-independence
property suite."""

from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petcoh import billey
from petcoh.billey import (
    billey_localization,
    inversion_roots,
    localization_table,
    packed_degree_sets,
    reduced_word_tables,
    restricted_rows,
    subset_steps,
)
from petcoh.cli import _WELLDEF_LENGTH_BY_RANK, DEFAULT_SUITE
from petcoh.roots import cartan_matrix
from petcoh.weyl import CayleyTable, WeylGroup

from oracles import (
    Poly,
    bond_order,
    bruhat_leq,
    code_degree,
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
    pack_exponents,
    poly_product,
    poly_sum,
    restrict_to_S,
    subword_localization,
    trie_word_tables,
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


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1",))
def test_reduced_word_tables_match_one_table_per_word(name):
    # the trie walk of the word-independence sweep against one full prefix
    # recursion per reduced word: the same words of each element, the same
    # values, keyed by index into the swept elements
    W = group(name)
    max_len = _WELLDEF_LENGTH_BY_RANK.get(W.rank, 3)
    cayley = CayleyTable(W, max_len)
    elements = cayley.elements
    tables = reduced_word_tables(W, cayley)
    assert set(tables) == set(range(len(elements)))
    index = {u: i for i, u in enumerate(elements)}
    for i, w in enumerate(elements):
        assert set(tables[i]) == enumerate_reduced_words(W, w), (name, w)
        for word, table in tables[i].items():
            oracle = localization_table(W, elements, from_word(W, word))
            assert table == {
                index[u]: {pack_exponents(e): c for e, c in p.items()}
                for u, p in oracle.items() if p}, (name, word)


def _exponent_vectors(n, degree):
    """Every exponent tuple of length n with sum at most degree."""
    if n == 0:
        yield ()
        return
    for e in range(degree + 1):
        for rest in _exponent_vectors(n - 1, degree - e):
            yield (e,) + rest


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_degree_is_the_exponent_sum_exhaustively(n):
    # entry d of the degree sets holds exactly the packed exponent vectors
    # of sum d, for every degree a table may reach
    vectors = list(_exponent_vectors(n, 14))
    assert len(vectors) == comb(14 + n, n)
    assert packed_degree_sets(n, 14) == [
        {pack_exponents(e) for e in vectors if sum(e) == d} for d in range(15)]


# the longest swept length of any rank
_SWEPT = max(_WELLDEF_LENGTH_BY_RANK.values())


@cache
def _checked_degree_sets(n):
    """``packed_degree_sets(n, _SWEPT)``, each entry d checked to hold
    C(d + n - 1, n - 1) codes, every one with fields summing to d: so,
    exactly the packed exponent vectors of sum d."""
    sets = packed_degree_sets(n, _SWEPT)
    for d, codes in enumerate(sets):
        assert len(codes) == comb(d + n - 1, n - 1)
        assert all(code_degree(code) == d for code in codes)
    return sets


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(5, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), max_size=_SWEPT))))
def test_packed_degree_is_the_exponent_sum_up_to_rank_12(drawn):
    # up to the longest swept length of simple roots, each drawn by its
    # index, multiplied out: the code lies in the set of its degree alone
    n, factors = drawn
    code = pack_exponents(tuple(factors.count(k) for k in range(n)))
    assert [d for d, codes in enumerate(_checked_degree_sets(n))
            if code in codes] == [len(factors)]


WALK_TYPES = DEFAULT_SUITE + ("A2+A1", "A5", "D5", "E6", "E7", "E8")


def _swept_table(name):
    W = group(name)
    return W, CayleyTable(W, _WELLDEF_LENGTH_BY_RANK.get(W.rank, 3))


@pytest.mark.parametrize("name", WALK_TYPES)
def test_reduced_word_tables_match_the_unshared_walk(name):
    # the walk that lists a subtree again from its first visit against the
    # walk of every trie node: the same elements, words in the same order
    # per element, and equal tables; and no two words share a table dict,
    # so that a table changed in place for one word changes no other's
    W, cayley = _swept_table(name)
    tables = reduced_word_tables(W, cayley)
    oracle = trie_word_tables(cayley)
    assert list(tables) == list(oracle)
    for i, words in oracle.items():
        assert list(tables[i]) == list(words), (name, i)
        assert tables[i] == words, (name, i)
    dicts = [table for words in tables.values() for table in words.values()]
    assert len({id(table) for table in dicts}) == len(dicts)


def test_reduced_word_tables_refuse_length_15_before_any_walk():
    # w_0 of A5 has length 15 and 292,864 reduced words; the guard must
    # stop on the table's last element, before the walk reads the letter
    # steps, so the spy below fails any read past ``elements``
    W = group("A5")
    cayley = CayleyTable(W, 15)
    w0 = cayley.elements[-1]
    assert w0.length == 15 and cayley.counts[-1] == 292_864

    class ElementsOnly:
        elements = cayley.elements

        def __getattr__(self, name):
            raise AssertionError(f"read cayley.{name} before the guard")

    with pytest.raises(ValueError, match="length 15"):
        reduced_word_tables(W, ElementsOnly())
    with pytest.raises(ValueError, match="length 15"):
        reduced_word_tables(W, cayley)


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
