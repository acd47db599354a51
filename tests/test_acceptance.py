"""Acceptance suite: one test per certification criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output).  All arithmetic is exact, so every comparison below is
equality; the only tolerances are the stated per-type runtime bounds.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from petcoh.billey import billey_localization
from petcoh.cli import (
    DEFAULT_SUITE,
    RunConfig,
    expected_equivariant_series,
    expected_ordinary_series,
    run_suite,
)
from petcoh.commalg import build_ideal_J, build_ideal_Jcheck, zero_set_via_minors
from petcoh.peterson import PetersonModel
from petcoh.report import strip_timing
from petcoh.roots import cartan_matrix
from petcoh.weyl import WeylGroup

from oracles import (
    Poly,
    bond_order,
    bruhat_leq,
    brute_reduced_words,
    class_value,
    elements_up_to_length,
    enumerate_reduced_words,
    from_word,
    generator_polys,
    hilbert_series_of_quotient,
    ideal_zero_set_is_origin,
    is_connected,
    is_regular_sequence,
    monk_fraction,
    one_class,
    poly_pow,
    product_holds,
    quadratic_combination,
    series_prefix,
    simple_class,
    subset_class,
    v_K,
    variable,
)

_MODELS = {}


def model(name) -> PetersonModel:
    if name not in _MODELS:
        _MODELS[name] = PetersonModel(cartan_matrix(name))
    return _MODELS[name]


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def test_criterion_1_monk_cartan_identity():
    with criterion(1, "Monk coefficients equal Cartan integers"):
        for name in DEFAULT_SUITE:
            start = time.perf_counter()
            m = model(name)
            cm = m.cartan
            for i in cm.nodes():
                for j in cm.nodes():
                    if i == j:
                        continue
                    c = monk_fraction(m, i, (i,), tuple(sorted((i, j))))
                    if cm.adjacent(i, j):
                        assert c == -cm.a(i, j) and c > 0, (name, i, j)
                    else:
                        assert c == 0, (name, i, j)
            assert time.perf_counter() - start < 1.0, f"{name} over 1s"
        g2 = model("G2")
        pair = (monk_fraction(g2, 1, (1,), (1, 2)),
                monk_fraction(g2, 2, (2,), (1, 2)))
        assert pair == (Fraction(1), Fraction(3))


def test_criterion_2_quadratic_relations():
    with criterion(2, "quadratic relations vanish at all fixed points"):
        for name in DEFAULT_SUITE:
            start = time.perf_counter()
            m = model(name)
            for i in m.cartan.nodes():
                assert not any(quadratic_combination(m, i)), (name, i)
            assert time.perf_counter() - start < 5.0, f"{name} over 5s"


def test_criterion_3_giambelli():
    with criterion(3, "Giambelli products and the disconnected remark"):
        for name in DEFAULT_SUITE:
            m = model(name)
            assert m.rank <= 4
            for K in m.subsets:
                if not is_connected(m.cartan, K):
                    continue
                v = v_K(m.group, K)
                n_words = m.group.count_reduced_words(v)
                if len(K) <= 3:
                    assert n_words == len(brute_reduced_words(m.group, v))
                coeff = Fraction(factorial(len(K)), n_words)
                lhs = subset_class(m, K).scale(coeff)
                rhs = one_class(m)
                for i in K:
                    rhs = rhs * simple_class(m, i)
                assert lhs == rhs, (name, K)
        for name, parts in [("A3", [(1,), (3,)]), ("A4", [(1, 2), (4,)]),
                            ("A4", [(1,), (3, 4)]), ("A2+A1", [(1, 2), (3,)])]:
            m = model(name)
            K = tuple(sorted(x for C in parts for x in C))
            assert m.cartan.connected_components(K) == parts, (name, K)
            assert product_holds(m, K, parts), (name, K)


def test_criterion_4_basis_triangularity():
    with criterion(4, "basis matrix upper triangular, nonzero diagonal"):
        for name in DEFAULT_SUITE:
            rec = model(name).verify_basis_triangular()
            assert rec.passed, name


def test_criterion_5_hilbert_series():
    with criterion(5, "quotient Hilbert series match the closed forms"):
        for name in DEFAULT_SUITE:
            start = time.perf_counter()
            cm = cartan_matrix(name)
            n = cm.rank
            assert hilbert_series_of_quotient(build_ideal_J(cm)) == \
                expected_equivariant_series(n), name
            assert hilbert_series_of_quotient(build_ideal_Jcheck(cm)) == \
                expected_ordinary_series(n), name
            assert time.perf_counter() - start < 60.0, f"{name} over 60s"


def test_criterion_6_regular_sequences_and_zero_sets():
    with criterion(6, "regular sequences and agreeing zero-set oracles"):
        for name in DEFAULT_SUITE:
            cm = cartan_matrix(name)
            ideal = build_ideal_J(cm)
            thetas = generator_polys(ideal)
            t_var = variable(cm.rank + 1, cm.rank)
            with_t, _ = is_regular_sequence(ideal.var_names, thetas + [t_var])
            prefix, _ = is_regular_sequence(ideal.var_names, thetas)
            assert with_t and prefix, name
            groebner_route = ideal_zero_set_is_origin(build_ideal_Jcheck(cm))
            minor_route = zero_set_via_minors(cm)
            assert groebner_route == minor_route == True, name  # noqa: E712


def test_criterion_7_graded_dimension_cross_check():
    with criterion(7, "image graded dimensions match the series"):
        for name in ("A1", "A2", "A3", "B2", "G2"):
            m = model(name)
            dims = m.image_graded_dimensions(12)
            coeffs = series_prefix(poly_pow([1, 0, 1], m.rank), [1, 0, -1], 13)
            assert dims == coeffs[::2], name


def test_criterion_8_billey_welldefinedness():
    with criterion(8, "localization independent of the reduced word"):
        for name in ("A2", "B2", "G2"):
            W = WeylGroup(cartan_matrix(name))
            elements = elements_up_to_length(W, 6)
            for w in elements:
                for v in elements:
                    value = billey_localization(W, v, w)
                    assert {sum(e) for e in value} <= {v.length}
                    assert bool(value) == bruhat_leq(W, v, w)
                    for word in enumerate_reduced_words(W, w):
                        alt = billey_localization(W, v, from_word(W, word))
                        assert alt == value, (name, v, w, word)


def test_criterion_9_spot_values():
    with criterion(9, "closed-form localization values"):
        # p_{s_i}(s_i) = t in every suite type
        for name in DEFAULT_SUITE:
            m = model(name)
            for i in m.cartan.nodes():
                assert class_value(simple_class(m, i), (i,)) == Poly(1, {(1,): 1})
        # order-3 bonds: sigma_{s_i}(s_i s_j s_i) = a alpha_i - a_ij alpha_j
        for name, i, j in (("A2", 1, 2), ("A2", 2, 1), ("A3", 2, 3),
                           ("B3", 1, 2), ("F4", 3, 4)):
            W = WeylGroup(cartan_matrix(name))
            cm = W.cartan
            assert bond_order(cm, i, j) == 3
            a = cm.a(i, j) * cm.a(j, i)
            value = billey_localization(
                W, from_word(W, (i,)), from_word(W, (i, j, i)))
            expected = {
                tuple(1 if k == i - 1 else 0 for k in range(cm.rank)):
                    Fraction(a),
                tuple(1 if k == j - 1 else 0 for k in range(cm.rank)):
                    Fraction(-cm.a(i, j)),
            }
            assert value == expected, (name, i, j)
        # G2 top fixed point: p_{s_i}(w_Delta) = (4 - 2 a_ij) t
        g2 = model("G2")
        cm = g2.cartan
        assert class_value(simple_class(g2, 1), (1, 2)) == \
            Poly(1, {(1,): 4 - 2 * cm.a(1, 2)})
        assert class_value(simple_class(g2, 2), (1, 2)) == \
            Poly(1, {(1,): 4 - 2 * cm.a(2, 1)})


def test_criterion_10_suite_determinism():
    with criterion(10, "suite reports byte-identical modulo timing"):
        template = RunConfig(lie_type="A1")
        first = run_suite(DEFAULT_SUITE, template)
        second = run_suite(DEFAULT_SUITE, template)
        assert first["overall_pass"] and second["overall_pass"]
        blob_one = json.dumps(strip_timing(first), sort_keys=True)
        blob_two = json.dumps(strip_timing(second), sort_keys=True)
        assert blob_one == blob_two
        for entry in first["types"]:
            assert entry["isomorphism_certified"] is True
