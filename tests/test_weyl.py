"""Weyl group elements, reduced words, parabolic longest elements, Bruhat order."""

from math import prod

import pytest

from petcoh.cli import _WELLDEF_LENGTH_BY_RANK, DEFAULT_SUITE, MAX_RANK
from petcoh.roots import cartan_matrix, parse_lie_type
from petcoh.weyl import CayleyTable, WeylGroup, word_to_str

from oracles import (
    EnumerationCapError,
    brute_reduced_words,
    bruhat_intervals,
    bruhat_leq,
    bruhat_lower_set,
    elements_up_to_length,
    enumerate_reduced_words,
    from_word,
    length_of_matrix,
    longest_element,
    mat_mul,
    reflection_matrix,
    right_multiply,
    right_multiply_reduced_words,
    v_K,
    weyl_group_degrees,
    weyl_multiply,
)

GROUP_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12,
                "D4": 192, "A2+A1": 12}


def group(name):
    return WeylGroup(cartan_matrix(name))


def whole_group(W):
    """The whole group, by one walk of the Cayley table to l(w_0)."""
    return CayleyTable(W, len(W.cartan.positive_roots())).elements


def test_identity_and_involutions():
    W = group("A2")
    assert from_word(W, ()).is_identity()
    assert from_word(W, ()).length == 0
    assert from_word(W, (1, 1)).is_identity()
    assert from_word(W, (2, 2)).is_identity()
    W4 = group("B2")
    assert from_word(W4, (1, 1)).is_identity()


def test_braid_words_give_equal_elements():
    W = group("A2")
    w = from_word(W, (1, 2, 1))
    assert w == from_word(W, (2, 1, 2))
    assert w.length == 3
    assert hash(w) == hash(from_word(W, (2, 1, 2)))


def test_from_word_keeps_reduced_input_as_witness():
    W = group("B2")
    w = from_word(W, (2, 1, 2, 1))
    assert w.witness_word == (2, 1, 2, 1)


def test_from_word_deletion_on_nonreduced_input():
    W = group("A2")
    w = from_word(W, (1, 2, 1, 1))
    assert w.length == 2
    assert len(w.witness_word) == 2
    assert from_word(W, w.witness_word) == w
    # a longer scramble still lands on a reduced witness
    u = from_word(W, (1, 2, 2, 1, 1, 2, 1, 2))
    assert u.length == len(u.witness_word)
    assert from_word(W, u.witness_word) == u


def test_from_word_rejects_bad_indices():
    W = group("A2")
    with pytest.raises(IndexError):
        from_word(W, (0,))
    with pytest.raises(IndexError):
        from_word(W, (3,))


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_word_insensitivity(name):
    W = group(name)
    for w in whole_group(W):
        variants = {from_word(W, word) for word in enumerate_reduced_words(W, w)}
        assert variants == {w}


def test_longest_element_examples():
    W = group("A2")
    assert longest_element(W, ()) == W.identity
    assert longest_element(W, (1,)) == from_word(W, (1,))
    assert longest_element(W, (1, 2)).length == 3

    W3 = group("A3")
    assert longest_element(W3, (1, 3)) == from_word(W3, (1, 3))  # commuting pair

    Wg = group("G2")
    w0 = longest_element(Wg, (1, 2))
    assert w0.length == 6
    assert w0 == from_word(Wg, (1, 2, 1, 2, 1, 2))

    Wb = group("B2")
    assert longest_element(Wb, (1, 2)).length == 4


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_longest_element_length_and_involution(name):
    W = group(name)
    cm = W.cartan
    pos = cm.positive_roots()
    for K in _subsets(cm.rank):
        w_K = longest_element(W, K)
        supported = [
            beta for beta in pos
            if all(c == 0 or (i + 1) in K for i, c in enumerate(beta))
        ]
        assert w_K.length == len(supported)
        assert weyl_multiply(W, w_K, w_K).is_identity()


def _subsets(n):
    for mask in range(1 << n):
        yield tuple(i + 1 for i in range(n) if mask >> i & 1)


def test_v_K_examples():
    W = group("A2")
    assert v_K(W, ()) == W.identity
    assert v_K(W, (1, 2)) == from_word(W, (1, 2))
    W3 = group("A3")
    v = v_K(W3, (1, 3))
    assert v.length == 2
    assert v == from_word(W3, (3, 1))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "G2", "D4", "A2+A1"])
def test_group_orders(name):
    W = group(name)
    assert len(whole_group(W)) == GROUP_ORDERS[name]


def _degrees(name):
    (lie_type,) = parse_lie_type(name)
    return weyl_group_degrees(lie_type.family, lie_type.rank)


@pytest.mark.parametrize("name", DEFAULT_SUITE)
def test_group_order_is_product_of_degrees(name):
    assert len(whole_group(group(name))) == prod(_degrees(name))


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
    "C5", "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"])
def test_longest_element_length_is_sum_of_degrees_minus_one(name):
    W = group(name)
    w0 = longest_element(W, tuple(W.cartan.nodes()))
    assert w0.length == sum(d - 1 for d in _degrees(name))
    assert w0.length == len(W.cartan.positive_roots())


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_reduced_words_against_brute_force(name):
    W = group(name)
    for w in whole_group(W):
        words = enumerate_reduced_words(W, w)
        assert words == brute_reduced_words(W, w)
        assert W.count_reduced_words(w) == len(words)


def test_reduced_word_counts_match_enumeration_rank3():
    for name in ("A3", "B3", "C3"):
        W = group(name)
        for w in whole_group(W):
            # enumerate_reduced_words asserts the count internally as well
            assert len(enumerate_reduced_words(W, w)) == W.count_reduced_words(w)


def test_count_examples():
    W = group("A2")
    assert W.count_reduced_words(from_word(W, (1,))) == 1
    assert W.count_reduced_words(longest_element(W, (1, 2))) == 2
    # non-commuting adjacent product has a unique reduced word
    for name in ("A2", "B2", "G2"):
        Wx = group(name)
        assert Wx.count_reduced_words(from_word(Wx, (1, 2))) == 1
    assert W.count_reduced_words(W.identity) == 1


def test_enumerate_identity():
    W = group("A2")
    assert enumerate_reduced_words(W, W.identity) == frozenset({()})


def test_reduced_word_cap():
    W = WeylGroup(cartan_matrix("F4"))
    w0 = longest_element(W, (1, 2, 3, 4))
    assert w0.length == 24
    with pytest.raises(EnumerationCapError, match="length 24 exceeds cap 16"):
        enumerate_reduced_words(W, w0)
    A2 = group("A2")
    with pytest.raises(EnumerationCapError, match="length 3 exceeds cap 2"):
        enumerate_reduced_words(A2, longest_element(A2, (1, 2)), cap=2)


def test_cayley_table_of_a3():
    # A3 has 24 elements, 9 of them of length <= 2; the walk to
    # l(w_0) = 6 finds the whole group
    W = group("A3")
    assert len(CayleyTable(W, 6).elements) == 24
    assert len(CayleyTable(W, 2).elements) == 9


@pytest.mark.parametrize("name,size", [
    ("A12", 441), ("B12", 442), ("C12", 442), ("D12", 442), ("E8+B4", 429),
    ("E6+E6", 429), ("F4", 55), ("B4", 54), ("G2+G2", 41)])
def test_welldef_sweep_is_bounded_by_rank(name, size):
    # the billey_welldef sweep walks the elements of length at most
    # _WELLDEF_LENGTH_BY_RANK (3 from rank 5 on), and MAX_RANK = 12 bounds
    # the rank, so no accepted type sweeps more than 442 elements; layer k
    # of the walk holds at most n^k of them
    W = group(name)
    n = W.rank
    assert n <= MAX_RANK
    swept = len(CayleyTable(W, _WELLDEF_LENGTH_BY_RANK.get(n, 3)).elements)
    assert swept == size <= 442
    if n >= 5:
        assert swept <= 1 + n + n ** 2 + n ** 3


def test_bruhat_examples():
    W = group("A2")
    w0 = longest_element(W, (1, 2))
    for w in whole_group(W):
        assert bruhat_leq(W, W.identity, w)
    assert not bruhat_leq(W, from_word(W, (1,)), from_word(W, (2,)))
    assert bruhat_leq(W, from_word(W, (1, 2)), w0)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "G2"])
def test_bruhat_against_subword_product_oracle(name):
    W = group(name)
    elements = whole_group(W)
    for w in elements:
        lower = bruhat_lower_set(W, w)
        for v in elements:
            assert bruhat_leq(W, v, w) == (v in lower)


def _swept_length(W):
    return _WELLDEF_LENGTH_BY_RANK.get(W.rank, 3)


def _table_length(W, whole):
    """The length the billey_welldef sweep walks to, or l(w_0)."""
    return len(W.cartan.positive_roots()) if whole else _swept_length(W)


@pytest.mark.parametrize("name,whole", [
    *((name, False) for name in DEFAULT_SUITE + ("A2+A1",)),
    ("A3", True), ("B3", True), ("G2", True)])
def test_bruhat_intervals_match_subword_criterion(name, whole):
    # the lifting recursion on indices, mapped back to actions, against the
    # same recursion on actions, the subword criterion and the products of
    # subwords, on the elements the billey_welldef sweep uses (or all)
    W = group(name)
    cayley = CayleyTable(W, _table_length(W, whole))
    elements = cayley.elements
    intervals = cayley.bruhat_intervals()
    assert len(intervals) == len(elements)
    by_action = {w.action: {elements[v].action for v in below}
                 for w, below in zip(elements, intervals)}
    assert by_action == bruhat_intervals(W, elements)
    for w in elements:
        below = {v.action for v in elements if bruhat_leq(W, v, w)}
        assert by_action[w.action] == below, (name, w)
        assert {u.action for u in bruhat_lower_set(W, w)} == below, (name, w)


_SWEPT = DEFAULT_SUITE + ("A2+A1", "A5", "D5", "E6", "E7", "E8")
_WHOLE = ("A3", "B3", "G2")


@pytest.mark.parametrize(
    "name,whole", [(name, False) for name in _SWEPT] +
    [(name, True) for name in _WHOLE],
    ids=list(_SWEPT) + [f"{name}-whole" for name in _WHOLE])
def test_cayley_table_multiplies_by_the_simple_reflections(name, whole,
                                                           monkeypatch):
    # the walk's elements against the right_multiply BFS, in order, with
    # their actions, lengths and witness words; then u s_b for every
    # descent, and for every ascent below the top length with its root
    # u(alpha_b), against right_action and the matrix columns.  Building
    # the table costs one right_action per ascent
    W = group(name)
    max_len = _table_length(W, whole)
    calls = []
    right_action = WeylGroup.right_action

    def counting(self, action, i):
        calls.append(i)
        return right_action(self, action, i)

    monkeypatch.setattr(WeylGroup, "right_action", counting)
    cayley = CayleyTable(W, max_len)
    monkeypatch.undo()
    assert len(calls) == sum(map(len, cayley.ascents))
    elements = cayley.elements
    assert [(u.action, u.length, u.witness_word) for u in elements] == \
        [(u.action, u.length, u.witness_word)
         for u in elements_up_to_length(W, max_len)]
    assert len(cayley.times) == len(cayley.ascents) == len(elements)
    for u, times, ascents in zip(elements, cayley.times, cayley.ascents):
        expected = {b: W.right_action(u.action, b) for b in W.cartan.nodes()
                    if b in W.descents(u.action) or u.length < max_len}
        assert {b: elements[j].action for b, j in times.items()} == \
            expected, (name, u)
        assert ascents == {b: tuple(row[b - 1] for row in u.action)
                           for b in expected
                           if b not in W.descents(u.action)}, (name, u)


@pytest.mark.parametrize("name", DEFAULT_SUITE)
def test_reduced_words_match_right_multiply_recursion(name):
    # the action-matrix recursion against the WeylElement one, each group
    # with its own memo tables
    W = group(name)
    oracle_group = group(name)
    for w in CayleyTable(W, _swept_length(W)).elements:
        words = right_multiply_reduced_words(oracle_group, w)
        assert enumerate_reduced_words(W, w) == words, (name, w)
        assert W.count_reduced_words(w) == len(words), (name, w)


def test_reduced_words_of_every_v_K_of_E6_match_right_multiply_recursion():
    W, oracle_group = group("E6"), group("E6")
    for mask in range(1 << 6):
        v = v_K(W, tuple(i + 1 for i in range(6) if mask >> i & 1))
        words = right_multiply_reduced_words(oracle_group, v)
        assert W.count_reduced_words(v) == len(words), v
        assert enumerate_reduced_words(W, v) == words, v


def test_word_serialization():
    assert word_to_str((1, 2, 1)) == "1,2,1"
    assert word_to_str(()) == ""


def test_witness_word_deterministic():
    # constructed elements pick the smallest length-decreasing generator,
    # so repeated construction yields identical witnesses
    for name in ("A3", "B3"):
        W1, W2 = group(name), group(name)
        for K in _subsets(W1.cartan.rank):
            assert longest_element(W1, K).witness_word == \
                longest_element(W2, K).witness_word


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_right_multiply_matches_matrix_product(name):
    W = group(name)
    for i in W.cartan.nodes():
        assert from_word(W, (i,)).action == reflection_matrix(W.cartan, i)
    for w in elements_up_to_length(W, 4):
        for i in W.cartan.nodes():
            product = right_multiply(W, w, i)
            assert product.action == mat_mul(w.action, reflection_matrix(W.cartan, i))
            assert product.length == length_of_matrix(W, product.action)
