"""Groebner bases, Hilbert series, regular sequences, and the zero-set
oracles."""

import contextlib
import io
import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petcoh import cli, commalg
from petcoh.cli import DEFAULT_SUITE, RunConfig, main, run_certification, run_suite
from petcoh.commalg import (
    HilbertSeries,
    Ideal,
    build_ideal_J,
    build_ideal_Jcheck,
    groebner_basis,
    leading_minors_positive,
    s_polynomial,
    symmetrizer,
    zero_set_via_minors,
)
from petcoh.roots import CartanMatrix, cartan_matrix

from oracles import (
    IntegerEchelon,
    Poly,
    _tuple_minimalize,
    as_term_list,
    basis_leads,
    buchberger_groebner_basis,
    fraction_det,
    fraction_rank,
    fraction_reduced_series,
    generator_polys,
    graded_degree,
    grevlex_key,
    grlex_key,
    hilbert_series_of_quotient,
    ideal_zero_set_is_origin,
    ideal_to_json,
    is_regular_sequence,
    leading_exponents,
    monic_reduced_basis,
    normal_form,
    normalized,
    oracle_normal_form,
    oracle_s_polynomial,
    poly_mul,
    poly_pow,
    render,
    series_prefix,
    principal_minors_positive,
    total_degree,
    tuple_monomial_quotient_numerator,
    variable,
)

SUITE = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2"]


def P(nvars, terms):
    return Poly(nvars, terms)


def G(terms):
    """A generator in the form ``Ideal`` stores: its sorted pairs."""
    return tuple(sorted(terms.items()))


def equivariant_series(n):
    return fraction_reduced_series(poly_pow([1, 0, 1], n), [1, 0, -1])


def ordinary_series(n):
    return fraction_reduced_series(poly_pow([1, 0, 1], n), [1])


def prefix(series, count):
    return series_prefix(list(series.numerator), list(series.denominator), count)


# -- monomial orders -----------------------------------------------------------

def test_grevlex_vs_grlex():
    x2 = (2, 0, 0)
    xy = (1, 1, 0)
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert grevlex_key(x2) > grevlex_key(xy) > grevlex_key(y2)
    # grevlex and grlex disagree on xy vs xz ties further right
    assert grevlex_key(xy) > grevlex_key(xz)
    assert grlex_key(xy) > grlex_key(xz)
    yz = (0, 1, 1)
    assert grevlex_key(y2) > grevlex_key(yz)
    assert grevlex_key((0, 0, 2)) < grevlex_key(yz)
    assert grlex_key((1, 0, 0)) > grlex_key((0, 1, 0))


# -- ideal construction -----------------------------------------------------------

def test_build_ideal_J_A1():
    ideal = build_ideal_J(cartan_matrix("A1"))
    assert ideal.var_names == ("x1", "t")
    assert ideal.generators == (G({(2, 0): 2, (1, 1): -2}),)


def test_build_ideal_J_A2():
    ideal = build_ideal_J(cartan_matrix("A2"))
    g1 = G({(2, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): -2})
    g2 = G({(0, 2, 0): 2, (1, 1, 0): -1, (0, 1, 1): -2})
    assert ideal.generators == (g1, g2)


def test_build_ideal_J_G2_asymmetric_cross_terms():
    ideal = build_ideal_J(cartan_matrix("G2"))
    g1 = G({(2, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): -2})
    g2 = G({(0, 2, 0): 2, (1, 1, 0): -3, (0, 1, 1): -2})
    assert ideal.generators == (g1, g2)


def test_build_ideal_Jcheck():
    a1 = build_ideal_Jcheck(cartan_matrix("A1"))
    assert a1.generators == (G({(2,): 2}),)
    a2 = build_ideal_Jcheck(cartan_matrix("A2"))
    assert a2.generators == (
        G({(2, 0): 2, (1, 1): -1}),
        G({(0, 2): 2, (1, 1): -1}),
    )


def test_build_ideal_Jcheck_blockwise_for_sums():
    mixed = build_ideal_Jcheck(cartan_matrix("A2+A1"))
    a2 = build_ideal_Jcheck(cartan_matrix("A2"))
    # first two generators only touch x1, x2 and match the A2 block
    for g_mixed, g_block in zip(mixed.generators[:2], a2.generators):
        assert {e[:2]: c for e, c in g_mixed} == dict(g_block)
        assert all(e[2] == 0 for e, _ in g_mixed)
    assert mixed.generators[2] == G({(0, 0, 2): 2})


def test_ideal_rejects_zero_generator():
    for zero in ({}, {(1,): 0}, ()):
        with pytest.raises(ValueError, match="must be nonzero"):
            Ideal(("x1",), (zero,))


def test_ideal_stores_sorted_pairs_without_zero_coefficients():
    from_dict = Ideal(("x", "y"), ({(0, 1): 3, (1, 0): -1, (1, 1): 0},))
    from_pairs = Ideal(("x", "y"), ((((1, 0), -1), ((0, 1), 3)),))
    assert from_dict.generators == from_pairs.generators == \
        ((((0, 1), 3), ((1, 0), -1)),)
    assert from_dict == from_pairs and hash(from_dict) == hash(from_pairs)


def _one_line_error(gens, names=("x", "y")):
    with pytest.raises(ValueError) as info:
        Ideal(names, gens)
    assert "\n" not in str(info.value)
    return str(info.value)


def test_ideal_rejects_a_negative_exponent():
    # unchecked, x^-1 y^2 + y would read as the series 1 / (1 - s^2)
    message = _one_line_error(({(-1, 2): 1, (0, 1): 1},))
    assert "(-1, 2)" in message and "non-negative" in message


def test_ideal_rejects_an_exponent_of_the_wrong_length():
    # unchecked, (1, 1, 0) in a two-variable ring would read as x y
    assert "tuple of 2 non-negative ints" in _one_line_error(({(1, 1, 0): 1},))
    assert "tuple of 2" in _one_line_error(({(1,): 1},))
    assert "tuple of 2" in _one_line_error(({(1.0, 1): 1},))
    assert "tuple of 2" in _one_line_error(({(True, 1): 1},))
    assert "tuple of 2" in _one_line_error(({"xy": 1},))


def test_ideal_rejects_a_float_coefficient():
    # unchecked, a float would end in a TypeError from gcd inside the engine
    assert "coefficient 0.5 is not an int" in \
        _one_line_error(({(1, 0): 0.5, (0, 1): 1},))
    assert "coefficient 2.0" in _one_line_error(({(1, 0): 2.0},))
    assert "coefficient Fraction(1, 2)" in _one_line_error(({(1, 0): Fraction(1, 2)},))


def test_ideal_rejects_a_bool_coefficient():
    assert "coefficient True is not an int" in _one_line_error(({(1, 0): True},))


def test_ideal_rejects_generators_that_are_not_term_data():
    assert "generator 2 is not term data" in \
        _one_line_error(({(1, 0): 1}, P(2, {(0, 1): 1})))
    assert "generator 1" in _one_line_error((((1, 0),),))


def test_ideal_rejects_variable_names_that_are_not_a_tuple_of_strs():
    # unchecked, a list of names would end in a TypeError from the caches
    xy = ({(1, 0): 1},)
    assert "['x', 'y'] are not a tuple of strs" in _one_line_error(xy, ["x", "y"])
    assert "('x', 2) are not" in _one_line_error(xy, ("x", 2))
    assert "'xy' are not" in _one_line_error(xy, "xy")


def test_ideals_and_series_are_frozen_values():
    ideal = Ideal(("x", "y"), ({(2, 0): 1, (1, 1): -1},))
    twin = Ideal(("x", "y"), ((((1, 1), -1), ((2, 0), 1)),))
    assert ideal is not twin
    assert ideal == twin and hash(ideal) == hash(twin)
    assert ideal != Ideal(("x", "z"), twin.generators)
    series = HilbertSeries.over_one_minus_s2([1, 0, 1], 1)
    again = HilbertSeries((1, 0, 1), (1, 0, -1))
    assert series is not again
    assert series == again and hash(series) == hash(again)
    assert series != HilbertSeries((1, 0, 1), (1,))
    for value, name in ((ideal, "var_names"), (ideal, "generators"),
                        (series, "numerator"), (series, "denominator")):
        with pytest.raises(AttributeError):
            setattr(value, name, ())
    # an equal ideal built apart has the same basis
    assert groebner_basis(twin) == groebner_basis(ideal)


def _t_free(ideal):
    """The ideal with t, its last variable, set to zero, in the other
    variables; the generators that vanish are left out."""
    gens = ({e[:-1]: c for e, c in g if not e[-1]} for g in ideal.generators)
    return Ideal(ideal.var_names[:-1], tuple(g for g in gens if g))


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7", "E8"))
def test_Jcheck_is_J_with_t_set_to_zero(name):
    cm = cartan_matrix(name)
    ideal = build_ideal_J(cm)
    assert ideal.var_names[-1] == "t"
    assert build_ideal_Jcheck(cm) == _t_free(ideal)
    assert len(build_ideal_Jcheck(cm).generators) == cm.rank


# -- Groebner -----------------------------------------------------------------

def test_groebner_principal_ideal():
    ideal = Ideal(("x1", "x2"), ({(1, 0): 1},))
    basis = groebner_basis(ideal)
    assert basis == [G({(1, 0): 1})]


def test_groebner_A1_Jcheck_monic():
    basis = groebner_basis(build_ideal_Jcheck(cartan_matrix("A1")))
    assert basis == [G({(2,): 1})]


def test_groebner_A2_Jcheck_pure_powers_and_quotient_dimension():
    ideal = build_ideal_Jcheck(cartan_matrix("A2"))
    basis = groebner_basis(ideal)
    lead = leading_exponents(basis)
    for v in range(2):
        assert any(e[v] == sum(e) and e[v] > 0 for e in lead)
    # the quotient has total dimension (1+s^2)^2 evaluated at 1 = 4
    series = hilbert_series_of_quotient(ideal)
    assert sum(prefix(series, 20)) == 4


def test_groebner_s_polynomials_reduce_to_zero():
    for name in ("A2", "A3", "B2", "G2"):
        for ideal in (build_ideal_J(cartan_matrix(name)),
                      build_ideal_Jcheck(cartan_matrix(name))):
            # Buchberger's criterion on the engine's own elements
            basis = [P(ideal.nvars, g) for g in groebner_basis(ideal)]
            for i in range(len(basis)):
                for j in range(i):
                    s = oracle_s_polynomial(basis[i], basis[j], grevlex_key)
                    assert not oracle_normal_form(s, basis, grevlex_key)


def test_groebner_deterministic_serialization():
    ideal = build_ideal_J(cartan_matrix("B3"))
    one = json.dumps(groebner_basis(ideal))
    two = json.dumps(groebner_basis(ideal))
    assert one == two


def test_groebner_reduced_basis_properties():
    basis = _monic_basis(build_ideal_J(cartan_matrix("A3")))
    lead = leading_exponents(g.terms for g in basis)
    for k, g in enumerate(basis):
        assert g.terms[lead[k]] == 1
        for e in g.terms:
            for other_idx, le in enumerate(lead):
                if other_idx != k:
                    assert not all(a <= b for a, b in zip(le, e))


# -- Groebner engine against the plain Buchberger oracle ---------------------------

def _serial(basis):
    return json.dumps([as_term_list(g) for g in basis])


def _is_primitive_integer(terms, key) -> bool:
    """Int coefficients of content 1, leading coefficient positive, for
    {exponent tuple: coefficient}."""
    return (all(type(c) is int for c in terms.values())
            and gcd(*terms.values()) == 1 and terms[max(terms, key=key)] > 0)


def _monic_basis(ideal):
    """The engine's basis, checked primitive, minimalized, tail-reduced and
    made monic by the Fraction oracle, for the term-for-term comparison
    with ``buchberger_groebner_basis``."""
    basis = groebner_basis(ideal)
    assert all(_is_primitive_integer(dict(g), grevlex_key) for g in basis)
    return monic_reduced_basis(basis)


def _quadric_ideals(name):
    """J, its t = 0 counterpart J-check, and J + (t)."""
    cm = cartan_matrix(name)
    ideal = build_ideal_J(cm)
    t_var = variable(ideal.nvars, cm.rank)
    return {
        "J": ideal,
        "Jcheck": build_ideal_Jcheck(cm),
        "J+t": Ideal(ideal.var_names, ideal.generators + (t_var.terms,)),
    }


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1",))
def test_groebner_matches_buchberger_oracle(name):
    for label, ideal in _quadric_ideals(name).items():
        assert _serial(_monic_basis(ideal)) == \
            _serial(buchberger_groebner_basis(ideal)), label


def test_groebner_matches_buchberger_oracle_E6():
    for label, ideal in _quadric_ideals("E6").items():
        assert _serial(_monic_basis(ideal)) == \
            _serial(buchberger_groebner_basis(ideal)), label


def test_groebner_matches_buchberger_oracle_E7_Jcheck():
    ideal = build_ideal_Jcheck(cartan_matrix("E7"))
    assert _serial(_monic_basis(ideal)) == \
        _serial(buchberger_groebner_basis(ideal))


def test_groebner_matches_buchberger_oracle_E7():
    # J, the one basis the quadric checks compute, and J + (t)
    ideals = _quadric_ideals("E7")
    for label in ("J", "J+t"):
        assert _serial(_monic_basis(ideals[label])) == \
            _serial(buchberger_groebner_basis(ideals[label])), label


@st.composite
def ring_polys(draw, nvars):
    """Up to six terms of degree at most 2 in each variable, small rational
    coefficients."""
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return Poly(nvars, draw(st.dictionaries(exps, coeffs, max_size=6)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_normal_form_matches_oracle(data):
    name = data.draw(st.sampled_from(DEFAULT_SUITE))
    ideal = data.draw(st.sampled_from(sorted(_quadric_ideals(name).items())))[1]
    # the engine's basis, or the raw generators, where the divisor order matters
    if data.draw(st.booleans()):
        divisors = [P(ideal.nvars, g) for g in groebner_basis(ideal)]
    else:
        divisors = generator_polys(ideal)
    p = data.draw(ring_polys(ideal.nvars))
    assert normal_form(p, divisors) == oracle_normal_form(p, divisors, grevlex_key)


def _scaled(p, c):
    return Poly(p.nvars, {e: c * v for e, v in p.terms.items()})


_NONZERO = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_normal_form_is_linear_in_p_and_blind_to_divisor_scaling(data):
    # the integer division clears p's denominators and works on primitive
    # divisors; neither may show in the remainder
    name = data.draw(st.sampled_from(DEFAULT_SUITE))
    ideal = data.draw(st.sampled_from(sorted(_quadric_ideals(name).items())))[1]
    if data.draw(st.booleans()):
        divisors = [P(ideal.nvars, g) for g in groebner_basis(ideal)]
    else:
        divisors = generator_polys(ideal)
    p = data.draw(ring_polys(ideal.nvars))
    c = data.draw(_NONZERO)
    expected = oracle_normal_form(p, divisors, grevlex_key)
    assert normal_form(_scaled(p, c), divisors) == _scaled(expected, c) == \
        oracle_normal_form(_scaled(p, c), divisors, grevlex_key)
    rescaled = [_scaled(g, data.draw(_NONZERO)) for g in divisors]
    assert normal_form(p, rescaled) == expected == \
        oracle_normal_form(p, rescaled, grevlex_key)


@st.composite
def small_ideals(draw, nvars=3, max_generators=4):
    """Two to ``max_generators`` generators in ``nvars`` variables, each with
    up to four terms of total degree at most 3."""
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: 0 < sum(e) <= 3)
    coeffs = st.integers(-3, 3).filter(bool)
    gens = draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=4),
                         min_size=2, max_size=max_generators))
    return Ideal(("x", "y", "z", "w")[:nvars], tuple(gens))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(small_ideals())
def test_groebner_matches_oracle_on_small_ideals(ideal):
    assert _serial(_monic_basis(ideal)) == \
        _serial(buchberger_groebner_basis(ideal))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(small_ideals(4, 5))
def test_groebner_matches_oracle_on_four_variable_ideals(ideal):
    assert _serial(_monic_basis(ideal)) == \
        _serial(buchberger_groebner_basis(ideal))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(small_ideals())
def test_integer_s_polynomial_is_a_multiple_of_the_oracle(ideal):
    gens = generator_polys(ideal)
    reducers = [commalg._reducer(g.terms) for g in gens]
    for i in range(len(gens)):
        for j in range(i):
            s = s_polynomial(reducers[i], reducers[j])
            assert all(type(c) is int for c in s.values())
            expected = oracle_s_polynomial(gens[i], gens[j], grevlex_key)
            assert s.keys() == expected.terms.keys()
            if s:
                ratio = {v / s[e] for e, v in expected.terms.items()}
                assert len(ratio) == 1 and ratio.pop() > 0


# -- the basis the loop returns --------------------------------------------------

def _twisted_cubic(names):
    """Three quadrics whose reduced bases differ between grevlex and grlex."""
    return Ideal(tuple(names), (
        {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1},
        {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1},
        {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
    ))


def _fed_back_cases():
    """(label, ideal): J and J-check of every suite type, and the twisted
    cubic, which is not a regular sequence."""
    cases = [("cubic", _twisted_cubic("xyzw"))]
    for name in DEFAULT_SUITE:
        cases += [(f"{name} {label}", ideal)
                  for label, ideal in _quadric_ideals(name).items() if label != "J+t"]
    return cases


def test_a_basis_fed_back_as_an_ideal_keeps_its_leads_and_series():
    # groebner_basis returns generators in the form Ideal stores, so a
    # basis is an ideal as it stands, and the same one
    for label, ideal in _fed_back_cases():
        basis = groebner_basis(ideal)
        again = Ideal(ideal.var_names, basis)
        assert again.generators == tuple(basis), label
        assert _tuple_minimalize(basis_leads(again)) == \
            _tuple_minimalize(basis_leads(ideal)), label
        assert hilbert_series_of_quotient(again) == \
            hilbert_series_of_quotient(ideal), label


def test_groebner_returns_a_fresh_list():
    ideal = build_ideal_J(cartan_matrix("B2"))
    first = groebner_basis(ideal)
    expected = list(first)
    first.reverse()
    first.append(G({(0, 0, 1): 1}))
    assert groebner_basis(ideal) == expected
    assert groebner_basis(ideal) is not groebner_basis(ideal)


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7"))
def test_one_element_per_nonzero_reduction(name, monkeypatch):
    # the basis is the generators and the loop's own elements, none dropped
    ideals = dict(_quadric_ideals(name), cubic=_twisted_cubic("xyzw"))
    for label, ideal in ideals.items():
        zero = []
        reduce = commalg._reduce

        def recording_reduce(*args):
            remainder, scale = reduce(*args)
            zero.append(not remainder)
            return remainder, scale

        monkeypatch.setattr(commalg, "_reduce", recording_reduce)
        basis = groebner_basis(ideal)
        monkeypatch.undo()
        assert len(basis) == len(ideal.generators) + zero.count(False), label


def test_groebner_orders_never_conflated():
    # the engine's basis of the twisted cubic is the oracle's grevlex
    # basis, which differs from the grlex one
    ideal = _twisted_cubic("xyzw")
    grevlex = buchberger_groebner_basis(ideal, "grevlex")
    assert _monic_basis(ideal) == grevlex
    assert set(grevlex) != set(buchberger_groebner_basis(ideal, "grlex"))


# -- direct sums against their blocks -----------------------------------------------

BLOCKS = ("A1", "A2", "A3", "B2", "G2")


def _embed(p, offset, nvars):
    """p in the variables offset+1 .. offset+p.nvars of an nvars-variable ring."""
    tail = nvars - offset - p.nvars
    return Poly(nvars, {(0,) * offset + e + (0,) * tail: c
                        for e, c in p.terms.items()})


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(BLOCKS), st.sampled_from(BLOCKS))
def test_direct_sum_quadrics_split_into_blocks(left, right):
    whole = build_ideal_Jcheck(cartan_matrix(f"{left}+{right}"))
    blocks = [build_ideal_Jcheck(cartan_matrix(name)) for name in (left, right)]
    union = {_embed(g, offset, whole.nvars)
             for block, offset in zip(blocks, (0, blocks[0].nvars))
             for g in _monic_basis(block)}
    basis = _monic_basis(whole)
    assert len(basis) == len(union)
    assert set(basis) == union
    series = [hilbert_series_of_quotient(block) for block in blocks]
    product = fraction_reduced_series(
        poly_mul(series[0].numerator, series[1].numerator),
        poly_mul(series[0].denominator, series[1].denominator))
    assert hilbert_series_of_quotient(whole) == product


# -- Hilbert series ---------------------------------------------------------------

def test_hilbert_series_trivial_quotients():
    ring_mod_x = Ideal(("x1",), ({(1,): 1},))
    assert hilbert_series_of_quotient(ring_mod_x) == HilbertSeries((1,), (1,))
    assert prefix(hilbert_series_of_quotient(ring_mod_x), 4) == [1, 0, 0, 0]


def test_hilbert_series_A1_J():
    series = hilbert_series_of_quotient(build_ideal_J(cartan_matrix("A1")))
    assert series == equivariant_series(1)
    assert prefix(series, 8) == [1, 0, 2, 0, 2, 0, 2, 0]


def test_hilbert_series_A2_Jcheck():
    series = hilbert_series_of_quotient(build_ideal_Jcheck(cartan_matrix("A2")))
    assert series == ordinary_series(2)
    assert series.numerator == (1, 0, 2, 0, 1)
    assert series.denominator == (1,)


@pytest.mark.parametrize("name", SUITE + ["A2+A1"])
def test_main_theorem_series_certificates(name):
    cm = cartan_matrix(name)
    assert hilbert_series_of_quotient(build_ideal_J(cm)) == \
        equivariant_series(cm.rank)
    assert hilbert_series_of_quotient(build_ideal_Jcheck(cm)) == \
        ordinary_series(cm.rank)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_hilbert_series_order_independent(name):
    # the series read off the engine's grevlex basis of J-check is that of
    # the Fraction oracle's grlex basis, a basis under another order
    cm = cartan_matrix(name)
    jcheck = build_ideal_Jcheck(cm)
    leads = leading_exponents(
        [g.terms for g in buchberger_groebner_basis(jcheck, "grlex")], "grlex")
    numerator = tuple_monomial_quotient_numerator(leads, jcheck.nvars)
    assert hilbert_series_of_quotient(jcheck) == \
        HilbertSeries.over_one_minus_s2(
            [c for coeff in numerator for c in (coeff, 0)], jcheck.nvars) == \
        ordinary_series(cm.rank)


def test_hilbert_series_prefix_matches_binomial_sums():
    n = 3
    series = HilbertSeries.over_one_minus_s2(poly_pow([1, 0, 1], n), 1)
    oracle = series_prefix(poly_pow([1, 0, 1], n), [1, 0, -1], 13)
    assert prefix(series, 13) == oracle


def test_hilbert_series_canonical_reduction():
    # (1-s^4)/(1-s^2) reduces to 1+s^2
    series = HilbertSeries.over_one_minus_s2([1, 0, 0, 0, -1], 1)
    assert series.numerator == (1, 0, 1)
    assert series.denominator == (1,)
    # (1-s^2)/(1-s^2)^3 reduces to 1/(1-s^2)^2; trailing zeros are dropped
    assert HilbertSeries.over_one_minus_s2([1, 0, -1, 0, 0], 3) == \
        HilbertSeries((1,), (1, 0, -2, 0, 1))
    # the zero numerator gives 0/1
    for numerator in ([], [0], [0, 0, 0]):
        for power in range(3):
            series = HilbertSeries.over_one_minus_s2(numerator, power)
            assert (series.numerator, series.denominator) == ((), (1,))
            assert series == fraction_reduced_series(numerator,
                                                     poly_pow([1, 0, -1], power))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 5), st.data())
def test_reduction_matches_the_fraction_gcd_oracle(m_coeffs, power, data):
    # N = M(s^2) (1 - s^2)^j over (1 - s^2)^power, j <= power
    j = data.draw(st.integers(0, power))
    m = [c for coeff in m_coeffs for c in (coeff, 0)]
    numerator = poly_mul(m, poly_pow([1, 0, -1], j))
    series = HilbertSeries.over_one_minus_s2(numerator, power)
    assert series == fraction_reduced_series(numerator, poly_pow([1, 0, -1], power))
    assert all(type(c) is int for c in series.numerator + series.denominator)


def _printed_series(witnesses):
    """Every series a record's witnesses print, at any depth."""
    if isinstance(witnesses, dict):
        if "numerator_coeffs" in witnesses:
            yield witnesses
        else:
            for value in witnesses.values():
                yield from _printed_series(value)


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("E6", "E7"))
def test_built_series_match_the_oracle_on_the_unreduced_fraction(name, monkeypatch):
    built = []
    reduce = HilbertSeries.over_one_minus_s2.__func__

    def recording(cls, numerator, power):
        series = reduce(cls, numerator, power)
        built.append((list(numerator), power, series))
        return series

    monkeypatch.setattr(HilbertSeries, "over_one_minus_s2", classmethod(recording))
    report = run_certification(RunConfig(name, checks=("hilbert", "regular_sequence")))
    assert report.overall_pass
    for numerator, power, series in built:
        assert series == fraction_reduced_series(numerator, poly_pow([1, 0, -1], power))
        assert all(type(c) is int for c in series.numerator + series.denominator)
    # the series the report prints are among those checked
    printed = [item for record in report.records
               for item in _printed_series(record.witnesses)]
    assert len(printed) == 2
    assert all(item in [s.to_json() for _, _, s in built] for item in printed)


def _refuse(*args):
    raise AssertionError("a Groebner basis was computed")


def test_no_run_computes_a_groebner_basis(monkeypatch):
    # the quadric checks rest on the Cartan minors alone: from cleared
    # ideal caches, neither the suite nor a full E7 run asks the engine for a
    # basis, and every ideal they build is J or J-check of a type they run
    ideals = []
    init = Ideal.__init__

    def recording_init(self, *args):
        init(self, *args)
        ideals.append(self)

    monkeypatch.setattr(Ideal, "__init__", recording_init)
    monkeypatch.setattr(commalg, "_reducer", _refuse)
    commalg.build_ideal_J.cache_clear()
    commalg.build_ideal_Jcheck.cache_clear()
    assert run_suite(DEFAULT_SUITE)["overall_pass"]
    report = run_certification(RunConfig("E7"))
    assert report.overall_pass and report.isomorphism_certified()
    quadrics = {build_ideal_J(cartan_matrix(name))
                for name in DEFAULT_SUITE + ("E7",)}
    quadrics |= {build_ideal_Jcheck(cartan_matrix(name))
                 for name in DEFAULT_SUITE + ("E7",)}
    assert ideals and set(ideals) <= quadrics


def test_hilbert_series_computed_once_per_ideal_and_order(monkeypatch):
    # hilbert prints the closed form of each ideal once, that of J and
    # that of J-check; regular_sequence and zero_set print no series, and
    # no check asks the engine for a basis under any order
    ideals = []
    init = Ideal.__init__

    def recording_init(self, *args):
        init(self, *args)
        ideals.append(self)

    monkeypatch.setattr(Ideal, "__init__", recording_init)
    commalg.build_ideal_J.cache_clear()
    commalg.build_ideal_Jcheck.cache_clear()
    monkeypatch.setattr(commalg, "groebner_basis", _refuse)
    monkeypatch.setattr(commalg, "_reducer", _refuse)
    closed = {}
    for name in ("expected_equivariant_series", "expected_ordinary_series"):
        def recording_series(rank, name=name, series=getattr(cli, name)):
            closed.setdefault(name, []).append(rank)
            return series(rank)

        monkeypatch.setattr(cli, name, recording_series)
    report = run_certification(RunConfig(
        "E7", checks=("hilbert", "regular_sequence", "zero_set")))
    assert report.overall_pass
    assert closed == {"expected_equivariant_series": [7],
                      "expected_ordinary_series": [7]}
    hilbert = report.records[0].witnesses
    assert hilbert["equivariant_series"] == equivariant_series(7).to_json()
    assert hilbert["ordinary_series"] == ordinary_series(7).to_json()
    # every ideal the run builds is J or J-check: seven quadrics, no t
    assert ideals
    for ideal in ideals:
        assert len(ideal.generators) == 7


def test_e6_quadric_run_prints_the_closed_form_with_the_engine_refused(
        monkeypatch):
    # an E6 run of the three quadric checks passes and prints the closed
    # form (1 + s^2)^6 / (1 - s^2) while the engine refuses every basis
    monkeypatch.setattr(commalg, "groebner_basis", _refuse)
    monkeypatch.setattr(commalg, "_reducer", _refuse)
    # so that every ideal is rebuilt
    commalg.build_ideal_J.cache_clear()
    commalg.build_ideal_Jcheck.cache_clear()
    report = run_certification(RunConfig(
        "E6", checks=("hilbert", "regular_sequence", "zero_set")))
    assert [r.passed for r in report.records] == [True, True, True]
    assert report.records[0].witnesses["equivariant_series"] == \
        equivariant_series(6).to_json()


def test_a_quadric_run_builds_each_ideal_once(monkeypatch):
    # J and J-check are cached per Cartan matrix, J-check derived from the
    # cached J: the checks that read them share two ideals, each built and
    # validated once
    ideals = []
    quadrics = []
    init = Ideal.__init__
    quadric_ideal = commalg._quadric_ideal

    def recording_init(self, *args):
        init(self, *args)
        ideals.append(self)

    def recording_quadric_ideal(cartan):
        quadrics.append(cartan)
        return quadric_ideal(cartan)

    monkeypatch.setattr(Ideal, "__init__", recording_init)
    monkeypatch.setattr(commalg, "_quadric_ideal", recording_quadric_ideal)
    commalg.build_ideal_J.cache_clear()
    commalg.build_ideal_Jcheck.cache_clear()
    report = run_certification(RunConfig(
        "E7", checks=("hilbert", "regular_sequence", "zero_set")))
    assert report.overall_pass
    cm = cartan_matrix("E7")
    assert quadrics == [cm]
    # the lookups are cache hits, which construct nothing
    cached = [build_ideal_J(cm), build_ideal_Jcheck(cm)]
    assert len(ideals) == 2
    assert all(built is ideal for built, ideal in zip(ideals, cached))


@pytest.mark.parametrize("run", [
    lambda: run_suite(DEFAULT_SUITE),
    lambda: run_certification(RunConfig(
        "E6", checks=("hilbert", "regular_sequence", "zero_set"))),
], ids=["default-suite", "E6-quadric"])
def test_every_poly_a_run_builds_has_int_coefficients(run, monkeypatch):
    # the polynomials a run builds are the generators of its ideals
    built = []
    init = Ideal.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.extend(self.generators)

    monkeypatch.setattr(Ideal, "__init__", recording_init)
    # so that every ideal is rebuilt
    commalg.build_ideal_J.cache_clear()
    commalg.build_ideal_Jcheck.cache_clear()
    run()
    assert any(len(terms) > 1 for terms in built)
    for terms in built:
        assert all(type(c) is int for _, c in terms), terms


# -- the tuple Hilbert recursion ------------------------------------------------------

def test_tuple_numerator_fixed_cases():
    assert tuple_monomial_quotient_numerator([], 2) == [1]
    assert tuple_monomial_quotient_numerator([(0, 0), (2, 0)], 2) == []
    # (x^2, xy, y^3) leaves 1, x, y, y^2: N = (1 + 2s + s^2) (1 - s)^2
    assert tuple_monomial_quotient_numerator(
        [(0, 3), (1, 1), (2, 0), (1, 1)], 2) == [1, 0, -2, 0, 1]


# -- the engine's leads, read by the tuple recursion --------------------------------

@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7", "E8"))
def test_engine_leads_give_the_closed_forms(name):
    # the tuple recursion on the leads of the engine's bases gives the
    # closed forms: Q[x, t]/(J, t) is Q[x]/J-check; only J, with its t
    # axis, vanishes off the origin
    cm = cartan_matrix(name)
    closed = {"J": equivariant_series(cm.rank), "Jcheck": ordinary_series(cm.rank),
              "J+t": ordinary_series(cm.rank)}
    for label, ideal in _quadric_ideals(name).items():
        assert hilbert_series_of_quotient(ideal) == closed[label], label
        assert ideal_zero_set_is_origin(ideal) == (label != "J"), label


# -- the t = 0 section of the engine's leads ----------------------------------------

def _section_leads(ideal):
    """The minimal leads of the engine's basis of I that t, the last
    variable, does not divide, with t dropped.  For a homogeneous I they
    generate in((I + (t))/(t)), as in(I + (t)) = in(I) + (t) under grevlex
    (Bayer and Stillman, Invent. Math. 87, 1987)."""
    return _tuple_minimalize([e[:-1] for e in basis_leads(ideal) if not e[-1]])


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "D5", "E6", "E7", "E8"))
def test_section_leads_match_the_Jcheck_basis(name):
    # (J, t) = (J-check, t): the section of J's leads generates J-check's
    # leading-term ideal, and no lead of J's basis involves t
    cm = cartan_matrix(name)
    ideal, jcheck = build_ideal_J(cm), build_ideal_Jcheck(cm)
    assert _section_leads(ideal) == _tuple_minimalize(basis_leads(jcheck))
    assert not any(e[-1] for e in basis_leads(ideal))


def test_section_with_a_lead_that_t_divides():
    # the lead x_1 t leaves the section
    ideal = Ideal(("x1", "t"), ({(1, 1): 1}, {(2, 0): 1}))
    assert any(e[-1] for e in basis_leads(ideal))
    direct = _t_free(ideal)
    assert direct.generators == (G({(2,): 1}),)
    assert _section_leads(ideal) == _tuple_minimalize(basis_leads(direct)) == [(2,)]
    assert hilbert_series_of_quotient(direct) == HilbertSeries((1, 0, 1), (1,))


@st.composite
def homogeneous_ideals_with_t(draw):
    """Up to three homogeneous forms of degree one to three in x1, x2, t."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        monomials = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        terms = draw(st.dictionaries(st.sampled_from(monomials),
                                     st.integers(-2, 2).filter(bool),
                                     min_size=1, max_size=4))
        gens.append(terms)
    return Ideal(("x1", "x2", "t"), tuple(gens))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(homogeneous_ideals_with_t())
def test_section_leads_match_the_t_free_basis(ideal):
    # in(I + (t)) = in(I) + (t) under grevlex for every homogeneous I
    direct = _t_free(ideal)
    assert _section_leads(ideal) == _tuple_minimalize(basis_leads(direct))


# -- regular sequences ----------------------------------------------------------

def test_regular_sequence_single_variable():
    flag, cert = is_regular_sequence(("x1",), [P(1, {(1,): 1})])
    assert flag
    assert cert["degrees"] == [2]


def test_regular_sequence_Jcheck_generators():
    ideal = build_ideal_Jcheck(cartan_matrix("A2"))
    flag, _ = is_regular_sequence(ideal.var_names, generator_polys(ideal))
    assert flag


def test_regular_sequence_failure():
    x1 = P(2, {(1, 0): 1})
    x1x2 = P(2, {(1, 1): 1})
    flag, cert = is_regular_sequence(("x1", "x2"), [x1, x1x2])
    assert not flag
    assert cert["computed_series"] != cert["expected_series"]


def test_regular_sequence_rejects_inhomogeneous():
    p = P(1, {(1,): 1, (0,): 1})
    with pytest.raises(ValueError):
        is_regular_sequence(("x1",), [p])
    with pytest.raises(ValueError):
        is_regular_sequence(("x1",), [P(1, {(0,): 1})])


@pytest.mark.parametrize("name", SUITE)
def test_regularity_chain(name):
    cm = cartan_matrix(name)
    ideal = build_ideal_J(cm)
    thetas = generator_polys(ideal)
    t_var = variable(cm.rank + 1, cm.rank)
    full, _ = is_regular_sequence(ideal.var_names, thetas + [t_var])
    prefix, _ = is_regular_sequence(ideal.var_names, thetas)
    assert full and prefix


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7"))
def test_regular_sequence_record_matches_the_oracle(name):
    # the check rests on the Cartan minors; the oracle builds J + (t) and
    # reads the Hilbert-series criterion off its own basis
    [record] = run_certification(RunConfig(name, checks=("regular_sequence",))).records
    ideals = _quadric_ideals(name)
    with_t = is_regular_sequence(ideals["J+t"].var_names,
                                 generator_polys(ideals["J+t"]))
    prefix = is_regular_sequence(ideals["J"].var_names, generator_polys(ideals["J"]))
    assert with_t[0] and prefix[0] and record.passed
    assert record.witnesses == {"degrees": with_t[1]["degrees"],
                                "minor_route": True}


# -- faults on the minors route -------------------------------------------------

QUADRIC_CHECKS = ("hilbert", "regular_sequence", "zero_set")
# graded_dims reads the same route for its upper bound from degree 4 on
ROUTE_CHECKS = ("graded_dims",) + QUADRIC_CHECKS
_QUADRIC_IDEAL = commalg._quadric_ideal


def test_a_doctored_Jcheck_generator_fails_the_quadric_checks(monkeypatch):
    # theta-check_1 with its x_1^2 coefficient doubled is no longer
    # x_1 (A x)_1: the route does not hold, so no check that reads it passes
    build = commalg.build_ideal_Jcheck

    def doctored(cartan):
        ideal = build(cartan)
        first = {e: 2 * c if e[0] == 2 else c for e, c in ideal.generators[0]}
        return Ideal(ideal.var_names, (first,) + ideal.generators[1:])

    monkeypatch.setattr(commalg, "build_ideal_Jcheck", doctored)
    report = run_certification(RunConfig("B3"))
    assert [r.check for r in report.records if not r.passed] == list(ROUTE_CHECKS)
    assert all(r.witnesses["minor_route"] is False
               for r in report.records if r.check in QUADRIC_CHECKS)
    assert not report.isomorphism_certified()


def test_a_symmetrizer_that_finds_none_fails_the_quadric_checks(monkeypatch):
    # without a positive diagonal D, Sylvester's criterion on D A proves
    # nothing about the minors of A
    monkeypatch.setattr(commalg, "symmetrizer", lambda rows: None)
    report = run_certification(RunConfig("B3"))
    assert [r.check for r in report.records if not r.passed] == list(ROUTE_CHECKS)
    assert not report.isomorphism_certified()


def _quadric_checks_of(name):
    """The ``hilbert``, ``regular_sequence`` and ``zero_set`` records of a
    run on ``name``."""
    return run_certification(RunConfig(name, checks=QUADRIC_CHECKS)).records


def test_a_missing_generator_fails_the_quadric_checks(quadric_mutant):
    # n - 1 quadrics cut out a curve: every generator left is right, so
    # only the count tells the route that a node has none
    def without_the_last(cartan):
        ideal = _QUADRIC_IDEAL(cartan)
        return Ideal(ideal.var_names, ideal.generators[:-1])

    quadric_mutant(without_the_last)
    records = _quadric_checks_of("B3")
    assert [r.passed for r in records] == [False] * 3
    assert all(r.witnesses["minor_route"] is False for r in records)


def test_an_inhomogeneous_generator_fails_the_quadric_checks(quadric_mutant):
    # theta_1 + t keeps J-check, so the minors alone still hold; the degree
    # test of the route sees it
    def with_a_linear_term(cartan):
        ideal = _QUADRIC_IDEAL(cartan)
        first = dict(ideal.generators[0])
        first[(0,) * cartan.rank + (1,)] = 1
        return Ideal(ideal.var_names, (first,) + ideal.generators[1:])

    quadric_mutant(with_a_linear_term)
    assert zero_set_via_minors(cartan_matrix("B3"))
    records = _quadric_checks_of("B3")
    assert [r.passed for r in records] == [False] * 3
    assert all(r.witnesses["minor_route"] is False for r in records)


def test_a_failing_minor_test_fails_hilbert(monkeypatch):
    # a Sylvester test that rejects every matrix: the route no longer
    # proves the closed forms, and every check that reads it fails
    monkeypatch.setattr(commalg, "leading_minors_positive", lambda rows: False)
    report = run_certification(RunConfig("B3"))
    hilbert = next(r for r in report.records if r.check == "hilbert")
    assert hilbert.passed is False
    assert hilbert.witnesses["minor_route"] is False
    assert [r.check for r in report.records if not r.passed] == list(ROUTE_CHECKS)
    assert not report.isomorphism_certified()


def test_the_minors_route_dies_with_its_model(monkeypatch):
    # each run builds its own model, and the route is memoized on it: a
    # doctored Sylvester test reaches the run made under it, whether or
    # not a clean run came first, and a clean run after it reads no stale
    # route
    def failing(doctored):
        with monkeypatch.context() as patch:
            if doctored:
                patch.setattr(commalg, "leading_minors_positive",
                              lambda rows: False)
            report = run_certification(RunConfig("B3"))
        return [r.check for r in report.records if not r.passed]

    for order in ((False, True), (True, False)):
        assert [failing(doctored) for doctored in order] == \
            [list(ROUTE_CHECKS) if doctored else [] for doctored in order]


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "D5", "E6", "E7", "E8"))
def test_the_two_hilbert_routes_agree(name):
    # the closed forms the record prints, by the minors route, are the
    # series that elimination reads off the engine's bases of J and J-check
    cm = cartan_matrix(name)
    [record] = run_certification(RunConfig(name, checks=("hilbert",))).records
    assert record.passed and record.witnesses["minor_route"] is True
    assert record.witnesses["degrees"] == [4] * cm.rank + [2]
    assert record.witnesses["equivariant_series"] == \
        hilbert_series_of_quotient(build_ideal_J(cm)).to_json()
    assert record.witnesses["ordinary_series"] == \
        hilbert_series_of_quotient(build_ideal_Jcheck(cm)).to_json()


# -- zero sets -------------------------------------------------------------------

def test_zero_set_pure_powers():
    gens = tuple({tuple(2 if k == v else 0 for k in range(3)): 1}
                 for v in range(3))
    assert ideal_zero_set_is_origin(Ideal(("x1", "x2", "x3"), gens))


def test_zero_set_examples():
    assert ideal_zero_set_is_origin(build_ideal_Jcheck(cartan_matrix("A2")))
    axes = Ideal(("x1", "x2"), ({(1, 1): 1},))
    assert not ideal_zero_set_is_origin(axes)


def test_zero_set_rejects_inhomogeneous():
    bad = Ideal(("x1",), ({(2,): 1, (1,): 1},))
    with pytest.raises(ValueError):
        ideal_zero_set_is_origin(bad)


def test_positive_definiteness():
    assert leading_minors_positive([[2]])
    assert leading_minors_positive(cartan_matrix("A2").entries)
    assert not leading_minors_positive([[2, -2], [-2, 2]])  # determinant 0
    assert not leading_minors_positive([[0]])
    with pytest.raises(ValueError):
        leading_minors_positive([[2, 0]])


# -- exact elimination -----------------------------------------------------------

_ENTRIES = st.integers(-3, 3)


def _matrix(nrows, ncols):
    row = st.lists(_ENTRIES, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


def _product(left, right):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


@st.composite
def int_matrices(draw, square=False):
    """Small integer matrices, dense or a product through a thin inner
    dimension (rank-deficient); small entries make zero pivots common."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(_matrix(nrows, ncols))
    inner = draw(st.integers(1, 3))
    return _product(draw(_matrix(nrows, inner)), draw(_matrix(inner, ncols)))


def _leading_minors_oracle(rows):
    """Leading principal minors up to and including the first zero one."""
    minors = []
    for k in range(1, len(rows) + 1):
        minors.append(fraction_det([row[:k] for row in rows[:k]]))
        if not minors[-1]:
            break
    return minors


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(int_matrices(square=True))
def test_bareiss_leading_minors_match_fraction_oracle(rows):
    # the fraction-free elimination of ``leading_minors_positive`` against
    # the leading minors by elimination over the fractions
    minors = _leading_minors_oracle(rows)
    assert leading_minors_positive(rows) == all(m > 0 for m in minors)


# ``IntegerEchelon`` is the test oracle behind ``echelon_graded_dims``, and
# the rank over the fractions is its only check

@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(int_matrices())
def test_echelon_matches_fraction_oracle(rows):
    echelon = IntegerEchelon()
    for k, row in enumerate(rows):
        grows = fraction_rank(rows[:k + 1]) > fraction_rank(rows[:k])
        assert echelon.insert(row) == grows
    assert len(echelon) == fraction_rank(rows)
    leads = list(echelon.rows)
    for i, lead in enumerate(leads):
        stored = echelon.rows[lead]
        assert all(type(x) is int for x in stored)
        assert next(c for c, a in enumerate(stored) if a) == lead
        assert gcd(*stored) == 1
        # zero at the pivots of the rows stored before it
        assert not any(stored[c] for c in leads[:i])


def test_echelon_fixed_cases():
    echelon = IntegerEchelon()
    assert not echelon.insert([0, 0, 0])
    assert echelon.insert([0, 2, 4])
    assert echelon.rows == {1: [0, 1, 2]}
    assert not echelon.insert([0, -3, -6])
    assert echelon.insert([5, 1, 2])  # independent only through column 0
    assert echelon.insert([0, 1, 3])
    assert not echelon.insert([7, 7, 7])
    assert len(echelon) == 3


def test_zero_set_via_minors_examples():
    assert zero_set_via_minors(cartan_matrix("A1"))
    assert zero_set_via_minors(cartan_matrix("G2"))


@pytest.mark.parametrize("name", SUITE + ["A2+A1"])
def test_zero_set_oracle_agreement(name):
    cm = cartan_matrix(name)
    assert ideal_zero_set_is_origin(build_ideal_Jcheck(cm)) == \
        zero_set_via_minors(cm) == True  # noqa: E712


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "D5", "E6", "E7", "E8"))
def test_minors_route_matches_the_route_over_every_subset(name):
    cm = cartan_matrix(name)
    assert zero_set_via_minors(cm) == principal_minors_positive(cm) == True  # noqa: E712
    rows = cm.entries
    d = symmetrizer(rows)
    assert all(type(x) is int and x > 0 for x in d)
    symmetric = [[d_i * a for a in row] for d_i, row in zip(d, rows)]
    assert symmetric == [list(col) for col in zip(*symmetric)]
    # det((D A)_S) = prod_{i in S} d_i * det(A_S), for every S
    for mask in range(1, 1 << cm.rank):
        idx = [i for i in range(cm.rank) if mask >> i & 1]
        scale = 1
        for i in idx:
            scale *= d[i]
        assert fraction_det([[symmetric[r][c] for c in idx] for r in idx]) == \
            scale * fraction_det([[rows[r][c] for c in idx] for r in idx]) > 0


def test_symmetrizer_on_raw_entries():
    assert symmetrizer([[2]]) == [1]
    assert symmetrizer([[2, -1], [-3, 2]]) == [3, 1]
    assert symmetrizer([[2, 0], [0, 2]]) == [1, 1]
    # one side of a bond is zero
    assert symmetrizer([[2, -1], [0, 2]]) is None
    # a bond with entries of opposite signs has no positive symmetrizer
    assert symmetrizer([[2, 1], [-1, 2]]) is None
    # a 3-cycle with a12 a23 a31 = -2 != a21 a32 a13 = -1: each bond alone
    # is symmetrizable, the cycle is not
    cycle = [[2, -1, -1], [-1, 2, -1], [-2, -1, 2]]
    assert symmetrizer(cycle) is None
    balanced = [[2, -1, -2], [-1, 2, -2], [-1, -1, 2]]  # -2 == -2
    assert symmetrizer(balanced) == [1, 1, 2]


def _transposed_quadric_ideal(cartan):
    """The quadrics with cartan.a(j, i) in place of cartan.a(i, j): the
    transposed Cartan convention."""
    return _QUADRIC_IDEAL(CartanMatrix([list(col) for col in zip(*cartan.entries)]))


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2", "A3", "D4"])
def test_transposed_quadrics_fail_the_zero_set_check(name, quadric_mutant):
    quadric_mutant(_transposed_quadric_ideal)
    report = run_certification(RunConfig(name))
    record = next(r for r in report.records if r.check == "zero_set")
    # simply laced Cartan matrices are symmetric, so nothing changes there;
    # elsewhere the minors route sees generators other than x_i (A x)_i,
    # and every quadric check and graded_dims rest on it
    laced = name in ("A3", "D4")
    assert record.witnesses == {"minor_route": laced}
    hilbert = next(r for r in report.records if r.check == "hilbert")
    assert hilbert.witnesses["minor_route"] is laced
    assert [r.check for r in report.records if not r.passed] == \
        ([] if laced else ["quadratic", *ROUTE_CHECKS])
    assert report.overall_pass == laced


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2"])
def test_transposed_quadrics_fail_the_quadratic_check(name, quadric_mutant):
    # the rows are read off the Weyl group, the quadrics off J: a J in the
    # transposed convention no longer vanishes on the rows, so the run
    # does not certify; the failing nodes are those with an asymmetric bond
    quadric_mutant(_transposed_quadric_ideal)
    report = run_certification(RunConfig(name))
    record = next(r for r in report.records if r.check == "quadratic")
    cartan = cartan_matrix(name)
    asymmetric = [i for i in cartan.nodes()
                  if any(cartan.a(i, j) != cartan.a(j, i) for j in cartan.nodes())]
    assert asymmetric and record.witnesses["failing_rows"] == asymmetric
    assert not record.passed
    assert not report.isomorphism_certified()


def _wrong_t_quadric_ideal(cartan):
    """The quadrics with -3 t x_i in place of -2 t x_i."""
    ideal = _QUADRIC_IDEAL(cartan)
    t = cartan.rank
    return Ideal(ideal.var_names, tuple(
        {e: 3 * c // 2 if e[t] else c for e, c in g} for g in ideal.generators))


@pytest.mark.parametrize("name", DEFAULT_SUITE)
def test_a_wrong_t_coefficient_fails_the_quadratic_check(name, quadric_mutant):
    # theta_i - t x_i maps to -p_{s_i}, nonzero at w_{i}: every relation fails
    quadric_mutant(_wrong_t_quadric_ideal)
    assert build_ideal_J(cartan_matrix("A1")).generators == \
        (G({(2, 0): 2, (1, 1): -3}),)
    report = run_certification(RunConfig(name))
    record = next(r for r in report.records if r.check == "quadratic")
    assert record.witnesses["failing_rows"] == \
        list(cartan_matrix(name).nodes())
    assert not report.isomorphism_certified()


# -- every fault of one coefficient of J ----------------------------------------------

FAULT_TYPES = ("A3", "B3", "G2", "A2+A1")


def _coefficient_faults(name):
    """Every one-coefficient fault (k, e, delta) of J on ``name``: the
    coefficient of x^e in generator k moved by delta."""
    ideal = _QUADRIC_IDEAL(cartan_matrix(name))
    return [(k, e, delta) for k, g in enumerate(ideal.generators)
            for e, _ in g for delta in (1, -1)]


def _moved_coefficient(k, e, delta):
    """A replacement for ``commalg._quadric_ideal`` with one fault."""
    def builder(cartan):
        ideal = _QUADRIC_IDEAL(cartan)
        gens = [dict(g) for g in ideal.generators]
        gens[k][e] += delta
        return Ideal(ideal.var_names, tuple(gens))
    return builder


@pytest.mark.parametrize("name", FAULT_TYPES)
def test_every_coefficient_fault_fails_the_certificate(name, quadric_mutant):
    # each coefficient of each generator of J one more or one less: a full
    # certify run neither certifies nor exits 0
    faults = _coefficient_faults(name)
    passing = []
    for fault in faults:
        quadric_mutant(_moved_coefficient(*fault))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["certify", "--type", name, "--format", "json"])
        if code == 0 or json.loads(out.getvalue())["isomorphism_certified"]:
            passing.append(fault)
    assert faults and passing == []


# -- polynomial container --------------------------------------------------------

def test_poly_normalization():
    # the oracle's Fraction normalization and the engine's integer form of
    # the same polynomials, the engine's cleared of denominators: content
    # split off, leading coefficient positive
    p = P(2, {(2, 0): Fraction(2, 3), (1, 1): Fraction(-4, 3)})
    q = P(2, {(2, 0): 2, (1, 1): -4})  # 3 p
    assert normalized(p).terms == normalized(q).terms == {(2, 0): 1, (1, 1): -2}
    assert normalized(P(1, {(1,): -3})).terms == {(1,): 1}
    assert commalg._reducer({(1,): -3}) == ((1,), 1, ())
    lead, lc, tail = commalg._reducer(q.terms)
    assert (lead, lc, tail) == ((2, 0), 1, (((1, 1), -2),))
    assert all(type(c) is int for c in (lc,) + tuple(c for _, c in tail))
    # x_1 x_3 < x_2^2 under grevlex, where grlex would put x_1 x_3 above
    assert commalg._reducer({(1, 0, 1): 1, (0, 2, 0): 1})[0] == (0, 2, 0)


def test_poly_degrees():
    p = P(3, {(1, 1, 0): 1})
    assert total_degree(p) == 2
    assert graded_degree(p) == 4
    assert commalg.is_homogeneous(p.terms.items())
    assert not commalg.is_homogeneous({(1,): 1, (0,): 1}.items())
    assert commalg.is_homogeneous(())


def test_poly_serialization_sorted():
    p = P(2, {(0, 2): Fraction(1, 2), (2, 0): 1})
    assert as_term_list(p) == [[[2, 0], 1, 1], [[0, 2], 1, 2]]
    assert render(p) == "1*z1^2 + 1/2*z2^2"
    assert render(P(2, {})) == "0"
    ideal = build_ideal_Jcheck(cartan_matrix("A2"))
    assert render(P(2, ideal.generators[0]), ideal.var_names) == "2*x1^2 + -1*x1*x2"
    assert ideal_to_json(ideal) == {
        "variables": ["x1", "x2"],
        "generators": [[[[2, 0], 2, 1], [[1, 1], -1, 1]],
                       [[[1, 1], -1, 1], [[0, 2], 2, 1]]]}


def test_poly_keeps_the_coefficients_it_is_given():
    p = P(2, {(1, 0): 3, (0, 1): Fraction(1, 2), (1, 1): 0})
    assert p.terms == {(1, 0): 3, (0, 1): Fraction(1, 2)}
    assert type(p.terms[(1, 0)]) is int
    assert type(p.terms[(0, 1)]) is Fraction
