"""Localization values, restriction to the circle, and the word-independence
property suite."""

from fractions import Fraction

import pytest

from petcoh.billey import billey_localization, inversion_roots, restrict_to_S
from petcoh.commalg import Poly, TPolynomial
from petcoh.roots import cartan_matrix
from petcoh.weyl import WeylGroup


def group(name):
    return WeylGroup(cartan_matrix(name))


def alpha(n, i):
    return Poly.linear(tuple(1 if k == i - 1 else 0 for k in range(n)))


# -- fixed values ------------------------------------------------------------

@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "F4"])
def test_diagonal_rank_one(name):
    W = group(name)
    for i in W.cartan.nodes():
        s_i = W.simple_reflection(i)
        assert billey_localization(W, s_i, s_i) == alpha(W.rank, i)


def test_vanishing_off_diagonal_rank_one():
    W = group("A2")
    s1, s2 = W.simple_reflection(1), W.simple_reflection(2)
    assert not billey_localization(W, s1, s2)
    assert restrict_to_S(billey_localization(W, s1, s2)) == TPolynomial.zero()


@pytest.mark.parametrize("name,i,j", [("A2", 1, 2), ("A2", 2, 1),
                                      ("A3", 2, 3), ("B3", 1, 2)])
def test_order_three_closed_form(name, i, j):
    # for a bond of order 3: sigma_{s_i}(s_i s_j s_i) = a*alpha_i - a_ij*alpha_j
    W = group(name)
    cm = W.cartan
    assert cm.bond_order(i, j) == 3
    w = W.from_word((i, j, i))
    a_ij, a_ji = cm.a(i, j), cm.a(j, i)
    a = a_ij * a_ji
    expected = Poly(
        W.rank,
        {tuple(1 if k == i - 1 else 0 for k in range(W.rank)): a,
         tuple(1 if k == j - 1 else 0 for k in range(W.rank)): -a_ij})
    assert billey_localization(W, W.simple_reflection(i), w) == expected
    assert restrict_to_S(billey_localization(W, W.simple_reflection(i), w)) \
        == TPolynomial.monomial(a - a_ij, 1)


@pytest.mark.parametrize("i,j", [(1, 2), (2, 1)])
def test_order_four_closed_form(i, j):
    # same closed form for the order-4 bond, at w = (s_i s_j)^2
    W = group("B2")
    cm = W.cartan
    w = W.from_word((i, j, i, j))
    assert w == W.longest_element((1, 2))
    a = cm.a(i, j) * cm.a(j, i)
    value = billey_localization(W, W.simple_reflection(i), w)
    assert restrict_to_S(value) == TPolynomial.monomial(a - cm.a(i, j), 1)


@pytest.mark.parametrize("i,j", [(1, 2), (2, 1)])
def test_order_six_closed_form(i, j):
    # G2: sigma_{s_i}((s_i s_j)^3) = 4*alpha_i - 2*a_ij*alpha_j
    W = group("G2")
    cm = W.cartan
    w = W.from_word((i, j) * 3)
    assert w == W.longest_element((1, 2))
    a_ij = cm.a(i, j)
    n = W.rank
    expected = Poly(
        n,
        {tuple(1 if k == i - 1 else 0 for k in range(n)): 4,
         tuple(1 if k == j - 1 else 0 for k in range(n)): -2 * a_ij})
    assert billey_localization(W, W.simple_reflection(i), w) == expected
    assert restrict_to_S(expected) == TPolynomial.monomial(4 - 2 * a_ij, 1)


def test_restriction_substitutes_t():
    p = alpha(3, 1)
    assert restrict_to_S(p) == TPolynomial((0, 1))
    q = alpha(2, 1) * alpha(2, 2)
    assert restrict_to_S(q) == TPolynomial((0, 0, 1))
    assert restrict_to_S(Poly.zero(2)) == TPolynomial.zero()


# -- property sweep ----------------------------------------------------------

def _sweep(name, max_length):
    W = group(name)
    elements = W.elements_up_to_length(max_length)
    for w in elements:
        inv = inversion_roots(W, w)
        assert len(inv) == w.length
        diag = billey_localization(W, w, w)
        assert diag  # product of positive roots, never zero
        for v in elements:
            value = billey_localization(W, v, w)
            # degree and positivity
            assert value.total_degrees() <= {v.length}
            assert all(c > 0 for c in value.terms.values())
            # vanishing exactly off the Bruhat interval
            assert bool(value) == W.bruhat_leq(v, w)
            # independence of the reduced word chosen for w
            for word in W.enumerate_reduced_words(w):
                assert billey_localization(W, v, W.from_word(word)) == value


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_welldefinedness_rank_two_full_group(name):
    # longest elements have length <= 6, so this covers every w
    _sweep(name, 6)


def test_welldefinedness_A3_full_group():
    _sweep("A3", 6)


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_welldefinedness_rank_three_length_eight(name):
    _sweep(name, 8)


# -- container behaviour -------------------------------------------------------

def test_root_polynomial_serialization():
    p = alpha(2, 1) + alpha(2, 2) + alpha(2, 2)
    assert p.as_term_list() == [[[1, 0], 1, 1], [[0, 1], 2, 1]]


def test_tpolynomial_arithmetic():
    t = TPolynomial((0, 1))
    assert t * t == TPolynomial((0, 0, 1))
    assert (t + t) == TPolynomial((0, 2))
    assert t.scale(Fraction(1, 2)) == TPolynomial((0, Fraction(1, 2)))
    assert TPolynomial((1, 0, 0)) == TPolynomial((1,))
    assert TPolynomial((0, 0, 3)).degree() == 2
    assert TPolynomial.zero().degree() == -1


def test_tpolynomial_exact_division():
    t = TPolynomial((0, 1))
    sq = TPolynomial((0, 0, 6))
    assert sq.exact_div(t) == TPolynomial((0, 6))
    assert sq.exact_div(TPolynomial((0, 2))) == TPolynomial((0, 3))
    with pytest.raises(ValueError):
        TPolynomial((1, 1)).exact_div(t)
    with pytest.raises(ZeroDivisionError):
        t.exact_div(TPolynomial.zero())


def test_tpolynomial_homogeneity_helpers():
    assert TPolynomial((0, 0, 5)).is_monomial_of_degree(2)
    assert not TPolynomial((1, 0, 5)).is_monomial_of_degree(2)
    assert TPolynomial.zero().is_monomial_of_degree(7)
