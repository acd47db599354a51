"""Fixed-point classes: Monk, Giambelli, basis triangularity, quadratic
relations, graded dimensions."""

from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petcoh import billey, cli, commalg, peterson
from petcoh.cli import DEFAULT_SUITE, RunConfig, run_certification
from petcoh.errors import IntegrityError
from petcoh.peterson import PetersonModel, subsets_by_size
from petcoh.roots import cartan_matrix
from petcoh.weyl import WeylGroup

from oracles import (
    Poly,
    all_monomials_graded_dims,
    basis_matrix,
    brute_reduced_words,
    class_check_giambelli,
    class_check_monk,
    class_value,
    class_verify_basis,
    class_verify_quadratic,
    echelon_graded_dims,
    fraction_text,
    fraction_verify_giambelli,
    fraction_verify_monk,
    from_word,
    fundamental_weights,
    is_connected,
    is_monomial_of_degree,
    longest_element,
    monk_coefficients_per_identity,
    monk_fraction,
    monk_holds_per_identity,
    one_class,
    per_class_restriction,
    poly_product,
    poly_pow,
    poly_sum,
    quadratic_combination,
    restricted_rows_all_steps,
    restricted_rows_per_fixed_point,
    series_prefix,
    simple_class,
    subset_class,
    v_K,
    verify_monk_full,
)

SUITE = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2"]
WALK_TYPES = DEFAULT_SUITE + ("A2+A1", "D5", "E6", "E7", "E8")
CLASS_CHECKS = ("quadratic", "monk", "giambelli", "basis", "graded_dims")


_MODELS = {}


def model(name):
    return PetersonModel(cartan_matrix(name))


def shared_model(name):
    """One model per type for the properties that draw many examples."""
    if name not in _MODELS:
        _MODELS[name] = model(name)
    return _MODELS[name]


def t_mono(c, k):
    return Poly(1, {(k,): c})


def test_subset_order_is_by_size_then_mask():
    assert subsets_by_size(2) == [(), (1,), (2,), (1, 2)]
    assert subsets_by_size(3)[:5] == [(), (1,), (2,), (3,), (1, 2)]


def test_fixed_points_are_parabolic_longest_elements(monkeypatch):
    # one walk of the subset lattice reaches each fixed point w_K once, in
    # subset order, and ends each ascent at w_K's action
    calls = _counting_tables(monkeypatch)
    m = model("A2")
    m.simple_class(1)
    assert [K for K, _ in calls] == list(m.subsets)
    by_K = dict(calls)
    assert by_K[()] == m.group.identity.action
    assert by_K[(1,)] == from_word(m.group, (1,)).action
    assert by_K[(1, 2)] == longest_element(m.group, (1, 2)).action
    assert len(calls) == 4


@pytest.mark.parametrize("name", WALK_TYPES)
def test_rows_match_the_per_fixed_point_walk(name):
    # the one walk of the subset lattice against one greedy longest element
    # and one witness word per fixed point
    m = model(name)
    assert m._rows == restricted_rows_per_fixed_point(
        WeylGroup(m.cartan), m.subsets)


@pytest.mark.parametrize("name", WALK_TYPES)
def test_rows_match_the_all_steps_walk(name):
    # each column over the steps inside its K against each column over
    # every step of each letter
    m = model(name)
    assert m._rows == restricted_rows_all_steps(m.group, m.subsets, m._steps)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A2+A1", "E6"])
def test_each_column_runs_the_steps_inside_its_K(name, monkeypatch):
    # the steps _ascend receives for K, per node b of K, against a filter
    # of all of b's steps by J inside K, in the same order
    m = model(name)
    every = billey.subset_steps(m.group)
    seen = []
    real = billey._ascend

    def ascend(group, action, K, steps, values):
        seen.append((K, steps))
        return real(group, action, K, steps, values)

    monkeypatch.setattr(billey, "_ascend", ascend)
    m._rows
    assert [K for K, _ in seen] == list(m.subsets)
    for (K, steps), mask in zip(seen, m._masks):
        assert steps == {b: [(J, lower) for J, lower in every[b]
                             if not J & ~mask] for b in K}, (name, K)


@pytest.mark.parametrize("name", WALK_TYPES)
def test_monk_failures_match_the_per_identity_oracle(name):
    # the identities evaluated together per K against each identity on
    # its own; on the undoctored rows both find none
    m = model(name)
    assert m.monk_failures() == [
        (i, K) for i in m.cartan.nodes() for K in m.subsets
        if not monk_holds_per_identity(m, i, K)] == []


@pytest.mark.parametrize("name", WALK_TYPES)
def test_word_counts_match_count_reduced_words(name):
    # the counts on the subset steps against the recursion on the action
    # matrices of each v_K
    m = model(name)
    group = WeylGroup(m.cartan)
    assert [m._word_counts[mask] for mask in m._masks] == \
        [group.count_reduced_words(v_K(group, K)) for K in m.subsets]


@pytest.mark.parametrize("name,calls", [("E6", 325), ("E7", 687),
                                        ("E8", 1447)])
def test_one_row_build_makes_one_right_action_per_letter(name, calls,
                                                          monkeypatch):
    # subset_steps makes one right_action per nonempty v_J and one per
    # step; the walk then makes one per new letter of each w_K, that is
    # l(w_K) - l(w_{K - m}) for m = max K
    m = model(name)
    actions = []
    real = m.group.right_action
    monkeypatch.setattr(m.group, "right_action",
                        lambda action, i: actions.append(i) or real(action, i))
    m._rows
    group = WeylGroup(m.cartan)
    letters = sum(longest_element(group, K).length
                  - longest_element(group, K[:-1]).length
                  for K in m.subsets[1:])
    steps = sum(map(len, billey.subset_steps(group).values()))
    assert len(actions) == len(m.subsets) - 1 + steps + letters == calls


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7", "E8"))
def test_simple_rows_are_heights_of_weight_differences(name):
    # sigma_{s_i}(w) = varpi_i - w varpi_i for any word of w, reduced or
    # not, so p_{s_i}(w_L) / t = ht(varpi_i - w_L varpi_i) with no word
    # read; B3, C3, G2 and F4 tell the transpose of the Cartan matrix from
    # the matrix itself
    m = model(name)
    weights = fundamental_weights(m.cartan)
    actions = [longest_element(m.group, L).action for L in m.subsets]
    for i, varpi in zip(m.cartan.nodes(), weights):
        heights = [sum(varpi) - sum(sum(a * c for a, c in zip(row, varpi))
                                    for row in action)
                   for action in actions]
        assert list(m.simple_class(i)) == heights, (name, i)


def test_simple_class_values():
    m = model("A2")
    p1 = simple_class(m, 1)
    assert class_value(p1, (1,)) == t_mono(1, 1)      # p_{s_i}(s_i) = t
    assert class_value(p1, ()) == Poly(1)  # vanishes at the identity
    assert class_value(p1, (2,)) == Poly(1)
    assert class_value(p1, (1, 2)) == t_mono(2, 1)    # simply-laced pair gives 2t


def test_g2_simple_class_at_top():
    m = model("G2")
    cm = m.cartan
    assert class_value(simple_class(m, 1), (1, 2)) == t_mono(4 - 2 * cm.a(1, 2), 1)
    assert class_value(simple_class(m, 2), (1, 2)) == t_mono(4 - 2 * cm.a(2, 1), 1)


def test_class_ring_operations():
    # the oracles' class arithmetic on the model's rows
    m = model("A2")
    one = one_class(m)
    p1 = simple_class(m, 1)
    assert p1 * one == p1
    assert class_value(p1 * p1, (1,)) == t_mono(1, 2)
    p2 = simple_class(m, 2)
    s = p1 + p2
    for K in m.subsets:
        assert class_value(s, K) == poly_sum(class_value(p1, K), class_value(p2, K))
    assert (p1 - p1).is_zero()
    scaled = p1.scale(1, 1)
    assert class_value(scaled, (1,)) == t_mono(1, 2)
    assert scaled.degree == 2
    half = p1.scale(Fraction(1, 2))
    assert half.degree == 1 and class_value(half, (1, 2)) == t_mono(1, 1)


def test_class_degrees():
    # a row stands for p_{v_K} of degree |K|: v_K has length |K|
    m = model("A3")
    for K in m.subsets:
        assert v_K(m.group, K).length == len(K)
        assert len(m.subset_class(K)) == len(m.subsets)
    p1, p2 = simple_class(m, 1), simple_class(m, 2)
    assert (p1 * p2).degree == 2 and one_class(m).degree == 0
    with pytest.raises(ValueError, match="degree"):
        p1 + p1 * p2
    with pytest.raises(ValueError, match="degree"):
        p1 - one_class(m)
    # zero is zero in every degree
    assert p1 - p1 == (p1 * p2).scale(0)
    assert p1 != p1.scale(1, 1)


def test_class_operations_reject_mismatched_models():
    a = model("A2")
    b = model("A3")
    with pytest.raises(ValueError):
        one_class(a) + one_class(b)
    with pytest.raises(ValueError):
        one_class(a) * one_class(b)


def test_support_condition():
    for name in ("A3", "B3", "G2"):
        m = model(name)
        for K in m.subsets:
            cls = subset_class(m, K)
            for J in m.subsets:
                if not set(K) <= set(J):
                    assert class_value(cls, J) == Poly(1)


@pytest.mark.parametrize("name", SUITE + ["E6"])
def test_classes_match_per_class_oracle(name):
    # one localization table per fixed point against one localization per
    # (v_J, w_K) pair, restricted on its own
    m = model(name)
    for J in m.subsets:
        expected = per_class_restriction(m, v_K(m.group, J))
        cls = subset_class(m, J)
        assert [class_value(cls, K) for K in m.subsets] == expected, (name, J)


def _counting_tables(monkeypatch, doctor=None):
    """Patch restricted_rows in billey and peterson; record (L, action)
    for every fixed point w_L the rows' walk ascends to, through
    billey._ascend, and let ``doctor(u, w, value)`` rewrite the value of
    u = v_J at w = w_L."""
    calls = []
    real_rows, real_ascend = billey.restricted_rows, billey._ascend

    def ascend(group, action, K, steps, values):
        end = real_ascend(group, action, K, steps, values)
        calls.append((K, end))
        return end

    def rows(group, subsets, steps):
        out = real_rows(group, subsets, steps)
        if doctor is None:
            return out
        fixed = [longest_element(group, L) for L in subsets]
        return tuple(tuple(doctor(v_K(group, J), w, c)
                           for w, c in zip(fixed, row))
                     for J, row in zip(subsets, out))

    monkeypatch.setattr(billey, "_ascend", ascend)
    monkeypatch.setattr(billey, "restricted_rows", rows)
    monkeypatch.setattr(peterson, "restricted_rows", rows)
    return calls


@pytest.mark.parametrize("name", ["A3", "E6"])
def test_model_construction_localizes_nothing(name, monkeypatch):
    calls = _counting_tables(monkeypatch)
    m = model(name)
    assert calls == []
    m.simple_class(1)
    # one row build walks each w_K once, and ends it at w_K
    assert calls == [(K, longest_element(m.group, K).action)
                     for K in m.subsets]
    for K in m.subsets:
        m.subset_class(K)
    m.verify_quadratic_relations()
    assert len(calls) == len(m.subsets)


def test_model_rejects_a_group_of_another_type():
    # an A3 group passes the A2 quadratic relations; a B2 group would give
    # the B2 rows to an A2 model
    for other in ("A3", "B2"):
        with pytest.raises(ValueError, match=f"group is of type {other}"):
            PetersonModel(cartan_matrix("A2"), WeylGroup(cartan_matrix(other)))
    cartan = cartan_matrix("A2")
    assert PetersonModel(cartan, WeylGroup(cartan_matrix("A2"))).rank == 2


def test_one_dropped_step_changes_the_rows_and_does_not_certify(monkeypatch):
    # v_{13} on A3 has the descents 1 and 3; without the step of letter 3,
    # p_{v_{13}} collects only the embeddings that end in letter 1
    real = billey.subset_steps
    rows = model("A3")._rows

    def dropped(group):
        steps = real(group)
        steps[3].remove((0b101, 0b001))
        return steps

    monkeypatch.setattr(billey, "subset_steps", dropped)
    m = model("A3")
    changed = [K for K, old, new in zip(m.subsets, rows, m._rows) if old != new]
    assert changed == [(1, 3)]
    report = run_certification(RunConfig("A3"))
    giambelli = next(r for r in report.records if r.check == "giambelli")
    assert giambelli.witnesses["failures"] == [
        {"kind": "disconnected_product", "K": [1, 3]}]
    assert not report.isomorphism_certified()


def test_quadric_checks_compute_no_fixed_point(monkeypatch):
    # the quadric checks never read a fixed point, so a run of only them
    # never enters the walk of the fixed points
    def refuse(group, subsets, steps):
        raise AssertionError(f"fixed points of {group.cartan.type_name()} "
                             "walked")

    monkeypatch.setattr(peterson, "restricted_rows", refuse)
    report = run_certification(RunConfig(
        "E7", checks=("hilbert", "regular_sequence", "zero_set")))
    assert [r.passed for r in report.records] == [True, True, True]
    with pytest.raises(AssertionError, match="fixed points of A2 walked"):
        model("A2").simple_class(1)


def test_monk_zero_denominator_is_an_integrity_error(monkeypatch):
    # zero every diagonal value p_{v_J}(w_J): v_J is the one target of
    # length |J| whose letters all lie in J
    def drop_diagonal(u, w, c):
        return 0 if u.length == len(set(w.witness_word)) else c

    _counting_tables(monkeypatch, drop_diagonal)
    m = model("A2")
    with pytest.raises(IntegrityError, match="division by zero"):
        m.monk_coefficient(1, (), (1,))


def test_class_homogeneity():
    m = model("B3")
    for K in m.subsets:
        v = v_K(m.group, K)
        cls = subset_class(m, K)
        for J in m.subsets:
            assert is_monomial_of_degree(class_value(cls, J), v.length)


@pytest.mark.parametrize("name", SUITE + ["E6"])
def test_class_values_are_ints(name):
    # every row the restriction checks read, and every quadratic residual
    m = model(name)
    for check in CLASS_CHECKS:
        assert cli._CHECK_FUNCTIONS[check](m).passed, check
    rows = [m.one()] + [m.subset_class(K) for K in m.subsets] + \
        [quadratic_combination(m, i) for i in m.cartan.nodes()]
    assert len(rows) == 1 + 2 ** m.rank + m.rank
    for row in rows:
        assert type(row) is tuple and len(row) == len(m.subsets)
        assert all(type(c) is int for c in row), row


# -- Monk --------------------------------------------------------------------

def test_monk_coefficient_examples():
    a3 = model("A3")
    assert monk_fraction(a3, 1, (1,), (1, 3)) == 0  # commuting pair
    a2 = model("A2")
    assert monk_fraction(a2, 1, (1,), (1, 2)) == 1  # equals -a(1,2)
    g2 = model("G2")
    assert monk_fraction(g2, 1, (1,), (1, 2)) == 1
    assert monk_fraction(g2, 2, (2,), (1, 2)) == 3
    b2 = model("B2")
    assert monk_fraction(b2, 1, (1,), (1, 2)) == 2
    assert monk_fraction(b2, 2, (2,), (1, 2)) == 1
    # an integer pair (num, den), den the diagonal p_{v_J}(w_J)
    num, den = g2.monk_coefficient(2, (2,), (1, 2))
    assert type(num) is int and type(den) is int
    assert den == g2.subset_class((1, 2))[g2.subset_index((1, 2))]


def test_monk_coefficient_matches_cartan_integer_everywhere():
    # quotient-formula route vs the closed form, on every adjacent pair
    for name in SUITE:
        m = model(name)
        cm = m.cartan
        for i in cm.nodes():
            for j in cm.nodes():
                if i == j:
                    continue
                c = monk_fraction(m, i, (i,), tuple(sorted((i, j))))
                assert c == -cm.a(i, j), (name, i, j)


def test_monk_coefficient_rejects_non_covers():
    m = model("A3")
    with pytest.raises(ValueError):
        m.monk_coefficient(1, (1,), (1, 2, 3))
    with pytest.raises(ValueError):
        m.monk_coefficient(1, (1, 2), (1, 2))
    with pytest.raises(ValueError):
        m.monk_coefficient(1, (2,), (1, 3))


def covers(m, K):
    """The covers J of K, |J| = |K| + 1, in node order."""
    return [tuple(sorted(K + (j,))) for j in m.cartan.nodes() if j not in K]


def giambelli_entry(m, K):
    """How the ``giambelli`` record reached the connected set K."""
    record = cli._check_giambelli(m)
    return next(c for c in record.witnesses["coefficients"]
                if c["K"] == list(K))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_verify_monk_all_cases(name):
    m = model(name)
    assert m.monk_failures() == []
    for i in m.cartan.nodes():
        for K in m.subsets:
            assert all(monk_fraction(m, i, K, J) >= 0 for J in covers(m, K))


@pytest.mark.parametrize("name", SUITE + ["E6", "E7"])
def test_monk_and_giambelli_records_match_fraction_oracle(name):
    # denominators cleared in integers against the identities summed in
    # Fractions: the same outcome, coefficients included
    m = model(name)
    failing = set(m.monk_failures())
    for i in m.cartan.nodes():
        for K in m.subsets:
            oracle = fraction_verify_monk(m, i, K)
            assert ((i, K) not in failing) == oracle.passed, (name, i, K)
            assert [{"J": list(J), "coefficient": monk_fraction(m, i, K, J)}
                    for J in covers(m, K)] == oracle.witnesses["coefficients"]
    record = cli._check_giambelli(m)
    entries = {tuple(c["K"]): c for c in record.witnesses["coefficients"]}
    for K in m.subsets:
        if K and is_connected(m.cartan, K):
            oracle = fraction_verify_giambelli(m, K)
            n_words = oracle.witnesses["reduced_words"]
            assert m.giambelli_holds(K) == (n_words, oracle.passed), (name, K)
            assert entries.pop(K) == {
                "K": list(K),
                "coefficient": fraction_text(oracle.witnesses["coefficient"]),
                "reduced_words": n_words}
    assert entries == {}


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6"))
def test_monk_records_match_class_arithmetic_oracle(name):
    # int rows compared where p_K or a cover p_J is nonzero against
    # PetersonClass arithmetic compared at every fixed point
    m = model(name)
    failing = set(m.monk_failures())
    for i in m.cartan.nodes():
        for K in m.subsets:
            oracle = verify_monk_full(m, i, K)
            assert ((i, K) not in failing) == oracle.passed, (name, i, K)
            assert all(monk_fraction(m, i, K, J) >= 0 for J in covers(m, K)) \
                == oracle.witnesses["coefficients_nonnegative"]


def test_monk_catches_a_value_off_the_support_condition(monkeypatch):
    # p_{v_K}(w_L) = 0 for L not containing K; making one such value 1
    # must fail the Monk identity at L, which the comparison set reads off
    # the values rather than assuming K <= L
    K, L = (1, 2), (1, 3)
    group = model("A3").group
    v, w_L = v_K(group, K), longest_element(group, L)

    def doctored(u, w, c):
        return c + 1 if (u, w) == (v, w_L) else c

    _counting_tables(monkeypatch, doctored)
    m = model("A3")
    assert m.subset_class(K)[m.subset_index(L)] == 1
    failing = m.monk_failures()
    assert failing == [(i, J) for i in m.cartan.nodes() for J in m.subsets
                       if not verify_monk_full(m, i, J).passed]
    assert (1, K) in failing
    assert cli._check_monk(m).to_dict() == \
        class_check_monk(m).to_dict()
    basis = m.verify_basis_triangular()
    assert basis.to_dict() == class_verify_basis(m).to_dict()
    assert not basis.passed and basis.witnesses["support_condition"] is False
    report = run_certification(RunConfig("A3"))
    monk = next(r for r in report.records if r.check == "monk")
    assert not monk.passed
    assert {"i": 1, "K": list(K)} in monk.witnesses["failures"]
    assert not report.overall_pass
    assert not report.isomorphism_certified()


@pytest.mark.parametrize("name", ["A3", "G2", "D4", "A2+A1"])
def test_check_monk_builds_no_class(name, monkeypatch):
    # the Monk check reads the rows built once and computes no new table
    m = model(name)
    m.subset_class(())  # builds every row
    calls = _counting_tables(monkeypatch)
    assert cli._check_monk(m).passed
    assert calls == []


def test_monk_off_by_a_third_fails_the_identity(monkeypatch):
    # p_{v_{12}}(w_{12}) on B3 made 3 instead of 2 turns the coefficient of
    # p_{s_1} p_{v_1} on p_{v_{12}} from 1 into 2/3: not an integer, still
    # nonnegative, so the identity is what fails, and it must be decided
    # exactly in integers, as the Fraction oracle decides it
    J = (1, 2)
    group = model("B3").group
    v_J, w_J = v_K(group, J), longest_element(group, J)

    def doctored(u, w, c):
        return 3 if (u, w) == (v_J, w_J) else c

    _counting_tables(monkeypatch, doctored)
    m = model("B3")
    assert m.monk_coefficient(1, (1,), J) == (2, 3)
    assert all(monk_fraction(m, 1, (1,), C) >= 0 for C in covers(m, (1,)))
    failing = m.monk_failures()
    assert (1, (1,)) in failing
    assert not fraction_verify_monk(m, 1, (1,)).witnesses["identity_holds"]
    assert failing == [(i, K) for i in m.cartan.nodes() for K in m.subsets
                       if not fraction_verify_monk(m, i, K).passed]
    # p_{s_3} vanishes at w_1 and w_{12}, so its coefficient on p_{v_{12}}
    # is 0 and the doctored diagonal drops out
    assert (3, (1,)) not in failing


def test_monk_record_lists_failures_node_first(monkeypatch):
    # two doctored entries on B3, p_{v_{12}}(w_{12}) and p_{v_2}(w_{23})
    # each one more, fail identities of three K and three nodes; the record
    # lists them for i in node order, then K in subset order, as the
    # Fraction oracle and the per-identity oracle fail them
    group = model("B3").group
    doctored_at = {(v_K(group, (1, 2)), longest_element(group, (1, 2))),
                   (v_K(group, (2,)), longest_element(group, (2, 3)))}

    def doctored(u, w, c):
        return c + 1 if (u, w) in doctored_at else c

    _counting_tables(monkeypatch, doctored)
    m = model("B3")
    identities = [(i, K) for i in m.cartan.nodes() for K in m.subsets]
    expected = [(i, K) for i, K in identities
                if not fraction_verify_monk(m, i, K).passed]
    assert expected == [(i, K) for i, K in identities
                        if not monk_holds_per_identity(m, i, K)]
    assert {K for _, K in expected} == {(1,), (2,), (3,)}
    assert {i for i, _ in expected} == {1, 2, 3}
    assert expected != sorted(expected, key=lambda iK: m.subset_index(iK[1]))
    record = cli._check_monk(m)
    assert not record.passed
    assert record.witnesses["failures"] == [{"i": i, "K": list(K)}
                                            for i, K in expected]


def test_monk_zero_diagonal_witness_names_the_first_identity(monkeypatch):
    # p_{v_{23}}(w_{23}) = 0 on A3: the record carries the IntegrityError
    # of the first (i, K, J) that divides by it, in the order the Fraction
    # coefficients of each identity are computed
    J = (2, 3)
    group = model("A3").group
    v_J, w_J = v_K(group, J), longest_element(group, J)

    def doctored(u, w, c):
        return 0 if (u, w) == (v_J, w_J) else c

    _counting_tables(monkeypatch, doctored)
    m = model("A3")
    with pytest.raises(IntegrityError) as oracle:
        for i in m.cartan.nodes():
            for K in m.subsets:
                fraction_verify_monk(m, i, K)
    message = "Monk division by zero for i=1, K=(2,), J=(2, 3)"
    assert str(oracle.value) == message
    [record] = run_certification(RunConfig("A3", checks=("monk",))).records
    assert record.passed is False
    assert record.witnesses == {"integrity_error": message}


def test_verify_monk_empty_K_coefficients():
    # c_{i,{}}^{{j}} is 1 when j = i and 0 otherwise
    m = model("A2")
    assert (1, ()) not in m.monk_failures()
    coeffs = {J: monk_fraction(m, 1, (), J) for J in covers(m, ())}
    assert coeffs == {(1,): 1, (2,): 0}


# -- Giambelli ----------------------------------------------------------------

def test_giambelli_singleton_trivial():
    m = model("A2")
    assert m.giambelli_holds((1,)) == (1, True)
    assert giambelli_entry(m, (1,))["coefficient"] == "1/1"


def test_giambelli_connected_pair_coefficient_two():
    for name in ("A2", "B2", "G2"):
        m = model(name)
        n_words, holds = m.giambelli_holds((1, 2))
        assert holds and n_words == 1
        assert giambelli_entry(m, (1, 2))["coefficient"] == "2/1"


def test_giambelli_A3_full_set():
    m = model("A3")
    v = v_K(m.group, (1, 2, 3))
    assert brute_reduced_words(m.group, v) == {(1, 2, 3)}
    assert m.giambelli_holds((1, 2, 3)) == (1, True)
    assert giambelli_entry(m, (1, 2, 3)) == {
        "K": [1, 2, 3], "coefficient": "6/1", "reduced_words": 1}


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "A5", "E6"))
def test_giambelli_holds_on_disconnected_subsets(name):
    # the count of reduced words of v_K is the shuffle count
    # |K|!/prod |C|! times the counts of the v_C over the components C, so
    # Giambelli's coefficient for K is the product of those for the C and
    # the formula holds for every nonempty K, connected or not
    m = model(name)
    count = m.group.count_reduced_words
    for K in m.subsets[1:]:
        components = m.cartan.connected_components(K)
        shuffles = factorial(len(K))
        for C in components:
            shuffles //= factorial(len(C))
        n_words, holds = m.giambelli_holds(K)
        assert holds, (name, K)
        assert n_words == shuffles * prod(
            count(v_K(m.group, C)) for C in components), (name, K)


@pytest.mark.parametrize("name", SUITE)
def test_giambelli_every_connected_subset(name):
    m = model(name)
    for K in m.subsets:
        if K and is_connected(m.cartan, K):
            assert m.giambelli_holds(K)[1], (name, K)


def test_disconnected_product_examples():
    a3 = model("A3")
    assert a3.product_holds((1, 3), [(1,), (3,)])
    assert a3.product_holds((2,), [(), (2,)])  # degenerate
    a4 = model("A4")
    assert a4.product_holds((1, 2, 4), [(1, 2), (4,)])
    mixed = model("A2+A1")
    assert mixed.product_holds((1, 2, 3), [(1, 2), (3,)])
    # three components: sets that no pair of connected sets reaches
    assert model("D4").product_holds((1, 3, 4), [(1,), (3,), (4,)])
    assert model("A5").product_holds((1, 3, 5), [(1,), (3,), (5,)])


def test_product_fails_on_a_split_component():
    # p_{v_{12}} is not p_{s_1} p_{s_2}: the product rule needs the whole
    # connected components
    a4 = model("A4")
    assert not a4.product_holds((1, 2, 4), [(1,), (2,), (4,)])
    assert a4.product_holds((1, 2, 4), [(1, 2), (4,)])
    assert not a4.product_holds((1, 2), [(1,), (2,)])


# -- basis -------------------------------------------------------------------

def test_basis_matrix_entries():
    m = model("A2")
    matrix = basis_matrix(m)
    idx = {K: i for i, K in enumerate(m.subsets)}
    assert matrix[idx[()]][idx[()]] == Poly(1, {(0,): 1})
    assert matrix[idx[(1,)]][idx[(1,)]] == t_mono(1, 1)
    assert matrix[idx[(1, 2)]][idx[(1,)]] == Poly(1)


@pytest.mark.parametrize("name", SUITE + ["A2+A1"])
def test_basis_triangularity(name):
    rec = model(name).verify_basis_triangular()
    assert rec.passed
    assert rec.witnesses["upper_triangular"]
    assert rec.witnesses["support_condition"]
    assert rec.witnesses["diagonal_nonzero"]


# -- quadratic relations --------------------------------------------------------

def test_quadratic_relation_A1_by_hand():
    # 2 p_1^2 - 2 t p_1 at t = 1, on the row of p_1 = (0, 1)
    m = model("A1")
    p1 = m.simple_class(1)
    assert p1 == (0, 1)
    assert [2 * c * c - 2 * c for c in p1] == [0, 0]
    assert quadratic_combination(m, 1) == (0, 0)


@pytest.mark.parametrize("name", SUITE + ["A2+A1"])
def test_quadratic_relations(name):
    assert model(name).verify_quadratic_relations().passed


def test_quadratic_combination_is_zero_per_row():
    m = model("G2")
    for i in m.cartan.nodes():
        assert quadratic_combination(m, i) == (0,) * len(m.subsets)


def test_an_inhomogeneous_quadric_fails_the_quadratic_check(quadric_mutant):
    # theta_1 + x_1 - t on A2: at t = 1 the degree-1 part x_1 - t would
    # mix with the degree-2 part, so the check refuses to evaluate it
    real = commalg._quadric_ideal

    def inhomogeneous(cartan):
        ideal = real(cartan)
        first, *rest = ideal.generators
        terms = dict(first)
        terms[(1, 0, 0)] = 1
        terms[(0, 0, 1)] = -1
        return commalg.Ideal(ideal.var_names, (terms, *rest))

    quadric_mutant(inhomogeneous)
    report = run_certification(RunConfig("A2", checks=("quadratic",)))
    (record,) = report.records
    assert record.passed is False
    assert record.witnesses == {
        "integrity_error": "a quadric generator is not homogeneous"}


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7", "E8"))
def test_quadric_rows_match_the_written_out_quadrics(name):
    # J's own generators at t = 1 against theta_i written out from the
    # Cartan matrix, row for row
    m = model(name)
    assert m.quadric_rows() == [quadratic_combination(m, i)
                                for i in m.cartan.nodes()]


# -- int rows against class arithmetic ---------------------------------------------

@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6"))
def test_row_records_match_class_arithmetic_oracle(name):
    # quadratic, monk, giambelli (disconnected products included) and basis on
    # the int rows at t = 1 against the same records by PetersonClass
    # arithmetic, degrees and all
    m = model(name)
    assert m.verify_quadratic_relations().to_dict() == \
        class_verify_quadratic(m).to_dict()
    monk = cli._check_monk(m)
    assert monk.passed
    assert monk.to_dict() == class_check_monk(m).to_dict()
    giambelli = cli._check_giambelli(m)
    assert giambelli.passed
    assert giambelli.to_dict() == class_check_giambelli(m).to_dict()
    assert m.verify_basis_triangular().to_dict() == class_verify_basis(m).to_dict()


def test_one_doctored_simple_value_fails_exactly_the_affected_quadrics(monkeypatch):
    # p_{s_2}(w_{12}) on A3 made 3 instead of 2: relation 2 fails there,
    # and so does relation 1, whose p_{s_1}(w_{12}) = 2 meets a_12 p_{s_2};
    # relation 3 has p_{s_3}(w_{12}) = 0 and still holds
    group = model("A3").group
    s_2, w_12 = v_K(group, (2,)), longest_element(group, (1, 2))

    def doctored(u, w, c):
        return c + 1 if (u, w) == (s_2, w_12) else c

    _counting_tables(monkeypatch, doctored)
    m = model("A3")
    assert m.simple_class(2)[m.subset_index((1, 2))] == 3
    rec = m.verify_quadratic_relations()
    assert rec.to_dict() == class_verify_quadratic(m).to_dict()
    assert not rec.passed and rec.witnesses["failing_rows"] == [1, 2]
    report = run_certification(RunConfig("A3"))
    quadratic = next(r for r in report.records if r.check == "quadratic")
    assert quadratic.witnesses["failing_rows"] == [1, 2]
    assert not report.isomorphism_certified()


def test_one_doctored_connected_class_fails_exactly_its_giambelli(monkeypatch):
    # p_{v_{12}}(w_{12}) on A3 off by one: only Giambelli for K = {1, 2}
    # reads it (no disconnected A3 set has {1, 2} as a component)
    K = (1, 2)
    group = model("A3").group
    v, w_K = v_K(group, K), longest_element(group, K)

    def doctored(u, w, c):
        return c + 1 if (u, w) == (v, w_K) else c

    _counting_tables(monkeypatch, doctored)
    m = model("A3")
    rec = cli._check_giambelli(m)
    assert rec.to_dict() == class_check_giambelli(m).to_dict()
    assert rec.witnesses["failures"] == [{"kind": "giambelli", "K": list(K)}]
    report = run_certification(RunConfig("A3"))
    giambelli = next(r for r in report.records if r.check == "giambelli")
    assert giambelli.witnesses["failures"] == [{"kind": "giambelli", "K": list(K)}]
    assert not report.isomorphism_certified()


# -- graded dimensions -----------------------------------------------------------

def test_graded_dimensions_A1():
    assert model("A1").image_graded_dimensions(4) == [1, 2, 2]


def test_graded_dimensions_A2_series():
    dims = model("A2").image_graded_dimensions(12)
    # independent expansion of (1+s^2)^2/(1-s^2); even coefficients only
    coeffs = series_prefix(poly_pow([1, 0, 1], 2), [1, 0, -1], 13)
    assert dims == coeffs[::2]
    assert dims == [1, 3, 4, 4, 4, 4, 4]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "G2"])
def test_graded_dimensions_match_series(name):
    m = model(name)
    dims = m.image_graded_dimensions(12)
    coeffs = series_prefix(poly_pow([1, 0, 1], m.rank), [1, 0, -1], 13)
    assert dims == coeffs[::2]
    assert m.verify_graded_dimensions().passed


def test_graded_dimensions_validation():
    m = model("A1")
    with pytest.raises(ValueError):
        m.image_graded_dimensions(3)
    with pytest.raises(ValueError):
        m.image_graded_dimensions(-2)
    assert m.image_graded_dimensions(0) == [1]


@pytest.mark.parametrize("name", SUITE + ["E6"])
def test_graded_dims_match_all_monomials_oracle(name):
    m = model(name)
    assert m.image_graded_dimensions(12) == all_monomials_graded_dims(m, 12)


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7", "E8"))
def test_graded_dims_match_echelon_oracle(name):
    # the product-basis argument against the frontier recursion through an
    # integer echelon form, at every cutoff up to 2 * MAX_RANK; the oracle runs
    # once, at the largest cutoff, and every smaller one is its prefix
    m = model(name)
    oracle = echelon_graded_dims(m, 24)
    for cutoff in range(0, 25, 2):
        assert m.image_graded_dimensions(cutoff) == oracle[:cutoff // 2 + 1], \
            (name, cutoff)


def test_graded_dims_E7_match_series():
    m = model("E7")
    coeffs = series_prefix(poly_pow([1, 0, 1], 7), [1, 0, -1], 13)
    assert m.image_graded_dimensions(12) == coeffs[::2]


def test_expansion_kernel_cost_on_E6(monkeypatch):
    # no elimination: graded_dims expands p_{s_i} b_S once per (S, i) with
    # i in S and |S| below the top degree, sum_{s<6} s C(6, s) = 186 at
    # cutoff 12, and monk p_{s_i} p_{v_K} once per (i, K), 6 * 64 = 384;
    # each is compared on the 2^(n - |K|) fixed points above K, where row K
    # or a cover row is nonzero
    m = model("E6")
    n = m.rank
    identities = {"graded_dims": [], "monk": []}
    real = peterson._expansion_failures

    def counting(table, support, k, covers, simple):
        check = "graded_dims" if table is m._products else "monk"
        points = support[k].union(*map(support.__getitem__, covers))
        identities[check] += [(k, len(points))] * len(simple)
        return real(table, support, k, covers, simple)

    monkeypatch.setattr(peterson, "_expansion_failures", counting)
    assert m.image_graded_dimensions(12) == [1, 7, 22, 42, 57, 63, 64]
    assert m.monk_failures() == []
    assert len(identities["graded_dims"]) == \
        sum(s * comb(n, s) for s in range(6)) == 186
    assert len(identities["monk"]) == n * 2 ** n == 384
    assert all(points == 2 ** (n - len(m.subsets[k]))
               for calls in identities.values() for k, points in calls)


def _doctored_graded_dims(monkeypatch, name, J, L, value):
    """The ``graded_dims`` record of ``name`` with p_{v_J}(w_L) replaced by
    value(p_{v_J}(w_L)), the model it ran on, and the echelon oracle's
    dimensions on the same rows."""
    group = model(name).group
    v_J, w_L = v_K(group, J), longest_element(group, L)

    def doctored(u, w, c):
        return value(c) if (u, w) == (v_J, w_L) else c

    _counting_tables(monkeypatch, doctored)
    m = model(name)
    record = m.verify_graded_dimensions()
    assert not record.passed
    assert record.to_dict() == run_certification(
        RunConfig(name, checks=("graded_dims",))).records[0].to_dict()
    return record, m, echelon_graded_dims(m, 12)


def test_graded_dims_fails_on_an_entry_off_the_support(monkeypatch):
    # p_{s_1}(w_{2}) on G2 made 1: the simple row no longer vanishes off
    # the supersets of {1}.  The echelon sees the same dimensions as on the
    # true rows, so the argument is stricter than the rank
    record, m, oracle = _doctored_graded_dims(
        monkeypatch, "G2", (1,), (2,), lambda c: c + 1)
    assert record.witnesses == {
        "computed": [1], "expected": [1, 3, 4, 4, 4, 4, 4],
        "failure": {"kind": "support", "i": 1, "L": [2]}}
    assert oracle == record.witnesses["expected"]
    assert not m.verify_basis_triangular().passed


def test_graded_dims_fails_on_a_zero_diagonal(monkeypatch):
    # p_{s_1}(w_{12}) on A3 made 0: b_{12}(w_{12}) = 0, so degree 2 is not
    # proven; degrees 0 and 1 are
    record, m, oracle = _doctored_graded_dims(
        monkeypatch, "A3", (1,), (1, 2), lambda c: 0)
    assert record.witnesses == {
        "computed": [1, 4], "expected": [1, 4, 7, 8, 8, 8, 8],
        "failure": {"kind": "diagonal", "S": [1, 2]}}
    assert oracle != record.witnesses["expected"]
    assert m.verify_basis_triangular().passed


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_graded_dims_fails_on_one_extra_term_in_a_reduction(name, monkeypatch):
    # p_{s_1}(w_Delta) one more: support and diagonals hold, but p_{s_1} b_1
    # leaves one nonzero term at w_Delta after b_1 and the b_{1j} reduce it
    n = model(name).rank
    top = tuple(range(1, n + 1))
    record, m, oracle = _doctored_graded_dims(
        monkeypatch, name, (1,), top, lambda c: c + 1)
    assert record.witnesses["computed"] == [1, 1 + n]
    assert record.witnesses["failure"] == {
        "kind": "reduction", "degree": 4, "S": [1], "i": 1}
    assert oracle != record.witnesses["expected"]
    assert m.verify_basis_triangular().passed


def _set_entry(m, table, K, L, change):
    """Build both tables of ``m``, then replace the entry of row K at w_L
    of ``table`` ("_rows" or "_products") by ``change(entry)``."""
    m._rows, m._products
    rows = [list(row) for row in getattr(m, table)]
    k, l = m.subset_index(K), m.subset_index(L)
    rows[k][l] = change(rows[k][l])
    setattr(m, table, tuple(map(tuple, rows)))


def _product_verdicts(m, table):
    """Per (S, i) with i in S: whether p_{s_i} b_S expands by Monk's rule
    on ``table`` by the kernel and by the per-identity oracle, a zero
    diagonal read as "zero" by both."""
    support = peterson._nonzero_points(table)
    kernel, oracle = {}, {}
    for k, S in enumerate(m.subsets):
        simple = [m.simple_class(i) for i in S]
        try:
            failing = peterson._expansion_failures(table, support, k,
                                                   m._covers[k], simple)
            kernel.update({(S, i): p not in failing for p, i in enumerate(S)})
        except ZeroDivisionError:
            kernel.update({(S, i): "zero" for i in S})
        for i in S:
            try:
                oracle[S, i] = monk_holds_per_identity(m, i, S, table)
            except IntegrityError:
                oracle[S, i] = "zero"
    return kernel, oracle


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6"))
def test_product_expansions_match_the_per_identity_oracle(name):
    # the graded_dims verdict of every (S, i in S), the kernel against each
    # identity on its own; on the true product table every one holds
    m = model(name)
    kernel, oracle = _product_verdicts(m, m._products)
    assert kernel == oracle
    assert set(kernel.values()) <= {True}


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A2+A1"])
def test_product_expansions_match_the_oracle_under_every_fault(name):
    # every entry of the product table one more or one less: the kernel
    # and the oracle fail the same (S, i)
    m = model(name)
    for S in m.subsets:
        for L in m.subsets:
            for delta in (1, -1):
                _set_entry(m, "_products", S, L, lambda c: c + delta)
                kernel, oracle = _product_verdicts(m, m._products)
                assert kernel == oracle, (name, S, L, delta)
                _set_entry(m, "_products", S, L, lambda c: c - delta)


@pytest.mark.parametrize("name", WALK_TYPES)
def test_product_basis_monk_coefficients_are_nonnegative(name):
    # c_J of p_{s_i} b_S on b_J, by the oracle: the sign test that
    # graded_dims adds to the expansion holds on every correct table
    m = model(name)
    negative = [(S, i, m.subsets[j]) for S in m.subsets for i in m.cartan.nodes()
                for j, (num, den) in zip(*monk_coefficients_per_identity(
                    m, i, S, m._products))
                if num * den < 0 or not den]
    assert negative == []


def test_graded_dims_fails_on_a_negative_product_coefficient():
    # b_{13}(w_{123}) on A3 negated: p_{s_1} b_{13} still equals
    # p_{s_1}(w_{13}) b_{13} + c b_{123}, as b_{13}(w_{123}) enters both
    # sides, but c = (3 - 1) (-9) / b_{123}(w_{123}) is negative
    m = model("A3")
    _set_entry(m, "_products", (1, 3), (1, 2, 3), lambda c: -c)
    (num, den), = monk_coefficients_per_identity(m, 1, (1, 3), m._products)[1]
    assert (num, den) == (2 * -9, m._products[-1][-1]) and den > 0
    failure = {}
    assert m.image_graded_dimensions(12, failure) == [1, 4, 7]
    assert failure == {"kind": "reduction", "degree": 6, "S": [1, 3], "i": 1}


def test_giambelli_fails_when_the_row_of_one_is_not_one():
    # p_{v_()} = 1 needs no formula, but its row is checked, not assumed:
    # p_{v_()}(w_()) = 2 passes Monk's rule, which reads it times
    # p_{s_i}(w_()) - p_{s_i}(w_()) = 0
    m = model("A3")
    _set_entry(m, "_rows", (), (), lambda c: c + 1)
    record = cli._check_giambelli(m)
    assert not record.passed
    assert record.witnesses["failures"] == [{"kind": "unit", "K": []}]
    assert cli._check_monk(m).passed


# -- every fault of one table entry -------------------------------------------

FAULT_TYPES = ("A3", "B3", "G2", "A2+A1")
_EMPTY = "no check reads b_() after the build"
_DIAGONAL = ("b_S(w_S) for S of two unlinked nodes need only be nonzero: "
             "Giambelli skips S, and Monk's rule reads it times p_{s_i}(w_S) "
             "- p_{s_i}(w_T) = 0, T = S or S - j")
_TOP = ("b_D(w_D) for the disconnected node set D need only be nonzero: "
        "b_D is nonzero only at w_D, where Monk's rule reads c_J b_D(w_D) = "
        "num_J whatever b_D(w_D) is")
_COVER = ("b_S(w_J) for a disconnected S and a cover J cancels: Monk's rule "
          "of S reads it on both sides at w_J, that of S - j times c_S = 0")


def _unseen_faults(name):
    """The one-entry faults, (table, K, L, delta), that no restriction
    check can see, each with the reason."""
    m = model(name)
    top = m.subsets[-1]
    unseen_faults = {("_products", (), L, delta): _EMPTY
                     for L in m.subsets for delta in (1, -1)}
    for S in m.subsets:
        if len(m.cartan.connected_components(S)) < 2:
            continue
        value = m._products[m.subset_index(S)][m.subset_index(S)]
        reason = _TOP if S == top else _DIAGONAL
        unseen_faults.update({("_products", S, S, delta): reason
                              for delta in (1, -1) if value + delta})
        unseen_faults.update({("_products", S, J, delta): _COVER
                              for J in covers(m, S) for delta in (1, -1)})
    return unseen_faults


def _faulty_runs(monkeypatch, name):
    """A function of a fault (table, K, L, delta) that returns the
    ``overall_pass`` of the restriction checks on ``name`` with that entry
    moved by delta after both tables are built."""
    build, fault = cli.PetersonModel, []

    def faulty(cartan, group=None):
        m = build(cartan, group)
        table, K, L, delta = fault
        _set_entry(m, table, K, L, lambda c: c + delta)
        return m

    monkeypatch.setattr(cli, "PetersonModel", faulty)

    def run(*entry):
        fault[:] = entry
        config = RunConfig(name, checks=CLASS_CHECKS)
        return run_certification(config).overall_pass
    return run


@pytest.mark.parametrize("table", ["_rows", "_products"])
@pytest.mark.parametrize("name", FAULT_TYPES)
def test_every_table_fault_fails_the_restriction_run(name, table, monkeypatch):
    # each entry of the table one more or one less, set after the build:
    # the run fails unless the fault is one that no check can see
    run = _faulty_runs(monkeypatch, name)
    unseen_faults = _unseen_faults(name)
    subsets = model(name).subsets
    passing = [(K, L, delta) for K in subsets for L in subsets
               for delta in (1, -1) if (table, K, L, delta) not in unseen_faults
               and run(table, K, L, delta)]
    assert passing == []


def _fault_id(name, table, K, L, delta):
    return "{}-{}-K{}-at{}{:+d}".format(
        name, table.strip("_"), "".join(map(str, K)) or "()",
        "".join(map(str, L)) or "()", delta)


@pytest.mark.parametrize("name,fault,reason", [
    pytest.param(name, fault, reason, id=_fault_id(name, *fault))
    for name in FAULT_TYPES for fault, reason in _unseen_faults(name).items()])
def test_an_unseen_fault_passes_the_restriction_run(name, fault, reason,
                                                    monkeypatch):
    assert _faulty_runs(monkeypatch, name)(*fault), reason


# -- direct sums ---------------------------------------------------------------

_SUMMANDS = ("A1", "A2", "A3", "B2", "G2")


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_direct_sum_classes_are_products(data):
    # p_{v_{K u L}}(w_{K' u L'}) = p_{v_K}(w_{K'}) p_{v_L}(w_{L'}) on X+Y,
    # the nodes of Y numbered after those of X
    x = data.draw(st.sampled_from(_SUMMANDS), label="X")
    y = data.draw(st.sampled_from(_SUMMANDS), label="Y")
    X, Y, XY = shared_model(x), shared_model(y), shared_model(f"{x}+{y}")
    K, K_ = (data.draw(st.sampled_from(X.subsets)) for _ in range(2))
    L, L_ = (data.draw(st.sampled_from(Y.subsets)) for _ in range(2))

    def shifted(J):
        return tuple(i + X.rank for i in J)

    lhs = subset_class(XY, K + shifted(L))
    assert v_K(XY.group, K + shifted(L)).length == len(K) + len(L)
    assert class_value(lhs, K_ + shifted(L_)) == poly_product(
        class_value(subset_class(X, K), K_), class_value(subset_class(Y, L), L_))
