"""Weyl group elements, reduced words, parabolic longest elements, Bruhat order."""

from math import prod

import pytest

from petcoh.cli import DEFAULT_SUITE
from petcoh.roots import cartan_matrix, parse_lie_type
from petcoh.weyl import WeylGroup, word_to_str

from oracles import (
    EnumerationCapError,
    bruhat_leq,
    elements_up_to_length,
    enumerate_reduced_words,
    from_word,
    length_of_matrix,
    longest_element,
    mat_mul,
    reflection_matrix,
    right_multiply,
    v_K,
    weyl_group_degrees,
    weyl_multiply,
)

GROUP_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12,
                "D4": 192, "A2+A1": 12}


def group(name):
    return WeylGroup(cartan_matrix(name))


def whole_group(W):
    """The whole group, by the breadth-first walk to l(w_0)."""
    return elements_up_to_length(W, len(W.cartan.positive_roots()))


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


def word_count(W, w):
    """The number of reduced words of w."""
    return len(enumerate_reduced_words(W, w))


def test_count_examples():
    W = group("A2")
    assert word_count(W, from_word(W, (1,))) == 1
    assert word_count(W, longest_element(W, (1, 2))) == 2
    # non-commuting adjacent product has a unique reduced word
    for name in ("A2", "B2", "G2"):
        Wx = group(name)
        assert word_count(Wx, from_word(Wx, (1, 2))) == 1
    assert word_count(W, W.identity) == 1


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


def test_bruhat_examples():
    W = group("A2")
    w0 = longest_element(W, (1, 2))
    for w in whole_group(W):
        assert bruhat_leq(W, W.identity, w)
    assert not bruhat_leq(W, from_word(W, (1,)), from_word(W, (2,)))
    assert bruhat_leq(W, from_word(W, (1, 2)), w0)


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


_TABLED = DEFAULT_SUITE + ("A2+A1", "A5", "D5", "E6", "E7", "E8")
_WHOLE = ("A3", "B3", "G2")


@pytest.mark.parametrize(
    "name,whole", [(name, False) for name in _TABLED] +
    [(name, True) for name in _WHOLE],
    ids=list(_TABLED) + [f"{name}-whole" for name in _WHOLE])
def test_cayley_table_multiplies_by_the_simple_reflections(name, whole):
    # the Cayley table of right multiplication by the simple reflections,
    # one right_action per element and node, on the elements of length at
    # most 3 (the whole group on A3, B3 and G2): each entry against the
    # matrix product, a descent exactly where column b of u has a negative
    # entry, and the length moving by one.  The whole group is closed
    # under the table
    W = group(name)
    max_len = len(W.cartan.positive_roots()) if whole else 3
    elements = elements_up_to_length(W, max_len)
    actions = {u.action for u in elements}
    for u in elements:
        for b in W.cartan.nodes():
            product = W.right_action(u.action, b)
            assert product == mat_mul(u.action,
                                      reflection_matrix(W.cartan, b)), \
                (name, u, b)
            descent = min(row[b - 1] for row in u.action) < 0
            assert length_of_matrix(W, product) == \
                u.length + (-1 if descent else 1), (name, u, b)
            if whole or descent:
                assert product in actions, (name, u, b)
