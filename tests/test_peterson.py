"""Fixed-point classes: Monk, Giambelli, basis triangularity, quadratic
relations, graded dimensions."""

from fractions import Fraction
from itertools import chain, combinations
from math import factorial, prod

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
    echelon_graded_dims,
    enumerate_reduced_words,
    fraction_check_giambelli,
    fraction_check_monk,
    fraction_text,
    fraction_verify_giambelli,
    fraction_verify_monk,
    from_word,
    fundamental_weights,
    is_connected,
    localized_rows,
    longest_element,
    mask,
    matrix_restricted_rows,
    matrix_subset_steps,
    monk_fraction,
    node_set,
    poly_pow,
    product_holds,
    quadratic_combination,
    series_prefix,
    v_K,
    verify_basis_by_sets,
)

SUITE = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2"]
WALK_TYPES = DEFAULT_SUITE + ("A2+A1", "D5", "E6", "E7", "E8")
CLASS_CHECKS = ("quadratic", "monk", "giambelli", "basis", "graded_dims")
FAULT_TYPES = ("A3", "B3", "G2", "A2+A1")


_MODELS = {}


def model(name):
    return PetersonModel(cartan_matrix(name))


def shared_model(name):
    """One model per type for the properties that draw many examples."""
    if name not in _MODELS:
        _MODELS[name] = model(name)
    return _MODELS[name]


def value(m, K, L):
    """p_{v_K}(w_L) / t^|K|, the entry of row K at the fixed point L."""
    return m.subset_class(K)[mask(L)]


def test_subset_order_is_by_size_then_mask():
    assert subsets_by_size(2) == [(), (1,), (2,), (1, 2)]
    assert subsets_by_size(3)[:5] == [(), (1,), (2,), (3,), (1, 2)]
    # every subset of {1..n} once, as a sorted tuple, in (popcount, mask)
    # order, node i being bit i - 1, through the largest rank accepted
    for n in range(cli.MAX_RANK + 1):
        every = chain.from_iterable(combinations(range(1, n + 1), k)
                                    for k in range(n + 1))
        assert subsets_by_size(n) == sorted(
            every, key=lambda K: (len(K), sum(1 << i - 1 for i in K))), n


@pytest.mark.parametrize("name", FAULT_TYPES)
def test_rows_are_read_by_mask(name):
    # a node set's index is its bitmask, node i being bit i - 1: the entry
    # of p_{v_K} at w_L is subset_class(K)[mask(L)], entry (mask(K),
    # mask(L)) of the localized oracle; from n = 3 on, a (size, bitmask)
    # position is not the mask
    m = model(name)
    oracle = localized_rows(m.group)
    for K in m.subsets:
        row = m.subset_class(K)
        assert [row[mask(L)] for L in m.subsets] == \
            [oracle[mask(K)][mask(L)] for L in m.subsets], (name, K)


def test_a_node_outside_the_type_is_a_key_error(monkeypatch):
    # a node set is looked up node by node, so 0 and n + 1 raise KeyError;
    # Monk's per-K loop reads masks and converts no node set, and
    # Giambelli's step converts its K once
    m = model("A3")
    for K in ((0,), (4,), (1, 4), (0, 2)):
        with pytest.raises(KeyError):
            m.subset_class(K)
        with pytest.raises(KeyError):
            m.giambelli_holds(K)
    for i in (0, 4):
        with pytest.raises(KeyError):
            m.simple_class(i)
    with pytest.raises(KeyError):
        m.monk_coefficient(1, (1,), (1, 4))
    conversions = _count_calls(monkeypatch, PetersonModel, "_mask")
    assert m.monk_failures() == []
    assert conversions == []
    assert m.giambelli_holds((1, 2, 3)) == (1, True)
    assert len(conversions) == 1


def _count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the arguments of
    each call."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_quadric_run_builds_no_subset_table_and_one_minors_route(monkeypatch):
    # the three quadric checks read the model's one minors route, and none
    # reads a subset table, so none is built
    subsets = _count_calls(monkeypatch, peterson, "subsets_by_size")
    routes = _count_calls(monkeypatch, commalg, "zero_set_via_minors")
    report = run_certification(
        RunConfig("E7", checks=("hilbert", "regular_sequence", "zero_set")))
    assert report.overall_pass
    assert (len(subsets), len(routes)) == (0, 1)


def test_a_full_run_reads_one_minors_route_and_one_quadric_evaluation(
        monkeypatch):
    # graded_dims and the quadric checks share the route, and quadratic
    # and graded_dims share the quadric rows: each generator of J is
    # evaluated on the rows once
    routes = _count_calls(monkeypatch, commalg, "zero_set_via_minors")
    evaluations = _count_calls(monkeypatch, peterson, "_evaluate")
    report = run_certification(RunConfig("B3"))
    assert report.isomorphism_certified()
    assert len(routes) == 1
    assert [theta for theta, _ in evaluations] == \
        list(commalg.build_ideal_J(cartan_matrix("B3")).generators)


def test_fixed_points_are_parabolic_longest_elements(monkeypatch):
    # one walk of the masks reaches each fixed point w_K once, in
    # increasing order of mask, and ends each ascent at w_K's action
    calls = _counting_tables(monkeypatch)
    m = model("A2")
    m.simple_class(1)
    assert [K for K, _ in calls] == [(), (1,), (2,), (1, 2)]
    by_K = dict(calls)
    assert by_K[()] == heights(m.group.identity.action) == (1, 1)
    assert by_K[(1,)] == heights(from_word(m.group, (1,)).action) == (-1, 2)
    assert by_K[(1, 2)] == heights(longest_element(m.group, (1, 2)).action) \
        == (-1, -1)
    assert len(calls) == 4


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "A2+A1", "E6"])
def test_each_column_runs_the_steps_inside_its_K(name, monkeypatch):
    # the steps _ascend receives for K, per node b of K, against a filter
    # of all of b's steps by J inside K, in the same order
    m = model(name)
    every = billey.subset_steps(m.cartan)
    seen = []
    real = billey._ascend

    def ascend(cartan, heights, K, steps, values):
        seen.append((K, steps))
        return real(cartan, heights, K, steps, values)

    monkeypatch.setattr(billey, "_ascend", ascend)
    m._rows
    assert [K for K, _ in seen] == [node_set(L) for L in range(1 << m.rank)]
    for L, (K, steps) in enumerate(seen):
        assert steps == {b: [(J, lower) for J, lower in every[b]
                             if not J & ~L] for b in K}, (name, K)


@pytest.mark.parametrize("name", WALK_TYPES)
def test_monk_failures_match_the_per_identity_oracle(name):
    # the identities evaluated together per K, in integers where row K or
    # a cover row is nonzero, against each identity on its own, summed in
    # Fractions at every fixed point; on the undoctored rows both find none
    m = model(name)
    assert m.monk_failures() == [
        (i, K) for i in m.cartan.nodes() for K in m.subsets
        if not fraction_verify_monk(m, i, K).passed] == []


@pytest.mark.parametrize("name", WALK_TYPES)
def test_word_counts_match_count_reduced_words(name):
    # the counts on the subset steps against the reduced words of each
    # v_K, listed by the oracle's recursion on action matrices
    m = model(name)
    group = WeylGroup(m.cartan)
    assert [m._word_counts[mask(K)] for K in m.subsets] == \
        [len(enumerate_reduced_words(group, v_K(group, K))) for K in m.subsets]


@pytest.mark.parametrize("name,calls", [("E6", 325), ("E7", 687),
                                        ("E8", 1447)])
def test_one_row_build_makes_one_right_action_per_letter(name, calls,
                                                          monkeypatch):
    # subset_steps reflects the heights once per nonempty v_J and once per
    # step; the walk then once per new letter of each w_K, that is
    # l(w_K) - l(w_{K - m}) for m = max K.  The matrix walk it replaced
    # made one right_action at each of the same places
    m = model(name)
    reflections = []
    real = billey._reflect
    monkeypatch.setattr(billey, "_reflect", lambda heights, b, updates:
                        reflections.append(b) or real(heights, b, updates))
    m._rows
    monkeypatch.undo()
    group = WeylGroup(m.cartan)
    letters = sum(longest_element(group, K).length
                  - longest_element(group, K[:-1]).length
                  for K in m.subsets[1:])
    steps = sum(map(len, billey.subset_steps(m.cartan).values()))
    assert len(reflections) == len(m.subsets) - 1 + steps + letters == calls
    actions = []
    monkeypatch.setattr(group, "right_action", lambda action, i: (
        actions.append(i) or WeylGroup.right_action(group, action, i)))
    matrix_restricted_rows(group, matrix_subset_steps(group))
    assert actions == reflections


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7", "E8"))
def test_simple_rows_are_heights_of_weight_differences(name):
    # sigma_{s_i}(w) = varpi_i - w varpi_i for any word of w, reduced or
    # not, so p_{s_i}(w_L) / t = ht(varpi_i - w_L varpi_i) with no word
    # read; B3, C3, G2 and F4 tell the transpose of the Cartan matrix from
    # the matrix itself; the rows are read by mask
    m = model(name)
    weights = fundamental_weights(m.cartan)
    actions = [longest_element(m.group, node_set(L)).action
               for L in range(1 << m.rank)]
    for i, varpi in zip(m.cartan.nodes(), weights):
        heights = [sum(varpi) - sum(sum(a * c for a, c in zip(row, varpi))
                                    for row in action)
                   for action in actions]
        assert list(m.simple_class(i)) == heights, (name, i)


def test_simple_class_values():
    m = model("A2")
    assert value(m, (1,), (1,)) == 1       # p_{s_i}(s_i) = t
    assert value(m, (1,), ()) == 0         # vanishes at the identity
    assert value(m, (1,), (2,)) == 0
    assert value(m, (1,), (1, 2)) == 2     # simply-laced pair gives 2t


def test_g2_simple_class_at_top():
    m = model("G2")
    cm = m.cartan
    assert value(m, (1,), (1, 2)) == 4 - 2 * cm.a(1, 2)
    assert value(m, (2,), (1, 2)) == 4 - 2 * cm.a(2, 1)


def test_class_degrees():
    # a row stands for p_{v_K} of degree |K|: v_K has length |K|
    m = model("A3")
    for K in m.subsets:
        assert v_K(m.group, K).length == len(K)
        assert len(m.subset_class(K)) == len(m.subsets)


def test_support_condition():
    for name in ("A3", "B3", "G2"):
        m = model(name)
        for K in m.subsets:
            for J in m.subsets:
                if not set(K) <= set(J):
                    assert value(m, K, J) == 0


def heights(action) -> tuple[int, ...]:
    """The heights of the roots w(alpha_b), the column sums of w's matrix."""
    return tuple(map(sum, zip(*action)))


def _counting_tables(monkeypatch, doctor=None):
    """Patch restricted_rows in billey and peterson; record (L, heights)
    for every fixed point w_L the rows' walk ascends to, through
    billey._ascend, and let ``doctor(u, w, value)`` rewrite the value of
    u = v_J at w = w_L."""
    calls = []
    real_rows, real_ascend = billey.restricted_rows, billey._ascend

    def ascend(cartan, heights, K, steps, values):
        end = real_ascend(cartan, heights, K, steps, values)
        calls.append((K, end))
        return end

    def rows(cartan, steps):
        out = real_rows(cartan, steps)
        if doctor is None:
            return out
        group = WeylGroup(cartan)
        subsets = [node_set(L) for L in range(1 << cartan.rank)]
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
    # one row build walks each w_K once, by mask, and ends it at w_K's
    # heights
    assert calls == [(K, heights(longest_element(m.group, K).action))
                     for K in map(node_set, range(1 << m.rank))]
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


# Dropped steps that leave the rows as they are.  On A2+A1 the walk
# reaches every w_K with 3 in K from w_{K - 3}, so the letter 3 comes after
# every letter 1 and 2; when a letter b in {1, 2} comes, sigma_{v_{J - b}}
# of the prefix is 0 for J - b containing 3, and the step adds nothing.
# Only the word count of v_J reads these steps.
ROWS_UNCHANGED = {"A2+A1-J13-b1", "A2+A1-J23-b2", "A2+A1-J123-b2"}


def _dropped_steps():
    """One case (type, b, (J, J - b), whether the rows change) for every
    descent step of the v_J of every fault type, its id naming J's nodes
    and the letter b."""
    cases = []
    for name in FAULT_TYPES:
        steps = billey.subset_steps(cartan_matrix(name))
        for b, pairs in steps.items():
            for J, lower in pairs:
                nodes = "".join(str(i + 1) for i in range(J.bit_length())
                                if J >> i & 1)
                case = f"{name}-J{nodes}-b{b}"
                cases.append(pytest.param(name, b, (J, lower),
                                          case not in ROWS_UNCHANGED, id=case))
    return cases


@pytest.mark.parametrize("name,b,step,rows_change", _dropped_steps())
def test_one_dropped_step_changes_the_rows_and_does_not_certify(
        name, b, step, rows_change, monkeypatch):
    # one descent step (J, J - b) left out of subset_steps, which both the
    # rows and the word counts read: the rows change (but for the steps of
    # ROWS_UNCHANGED), and a full run neither certifies nor exits 0
    real = billey.subset_steps
    rows = model(name)._rows

    def dropped(cartan):
        steps = real(cartan)
        steps[b].remove(step)
        return steps

    monkeypatch.setattr(billey, "subset_steps", dropped)
    m = model(name)
    changed = [node_set(K) for K, (old, new) in enumerate(zip(rows, m._rows))
               if old != new]
    assert bool(changed) == rows_change
    report = run_certification(RunConfig(name))
    assert not report.isomorphism_certified()
    assert cli.exit_status([report.to_dict()]) != 0
    if (name, b, step) == ("A3", 3, (0b101, 0b001)):
        # v_{13} on A3 has the descents 1 and 3; without the step of
        # letter 3, p_{v_{13}} collects only the embeddings that end in 1
        assert changed == [(1, 3)]
        giambelli = next(r for r in report.records if r.check == "giambelli")
        assert giambelli.witnesses["failures"] == [
            {"kind": "disconnected_product", "K": [1, 3]}]


def test_quadric_checks_compute_no_fixed_point(monkeypatch):
    # the quadric checks never read a fixed point, so a run of only them
    # never enters the walk of the fixed points
    def refuse(cartan, steps):
        raise AssertionError(f"fixed points of {cartan.type_name()} walked")

    monkeypatch.setattr(peterson, "restricted_rows", refuse)
    report = run_certification(RunConfig(
        "E7", checks=("hilbert", "regular_sequence", "zero_set")))
    assert [r.passed for r in report.records] == [True, True, True]
    with pytest.raises(AssertionError, match="fixed points of A2 walked"):
        model("A2").simple_class(1)


def test_restriction_checks_build_no_weyl_group(monkeypatch):
    # the rows walk on root heights, and billey_welldef walks them once
    # more on heights, so no check of a full run builds a group
    def refuse(self, cartan):
        raise AssertionError(f"a Weyl group of {cartan.type_name()} built")

    monkeypatch.setattr(WeylGroup, "__init__", refuse)
    for name in DEFAULT_SUITE + ("E6",):
        report = run_certification(RunConfig(name))
        assert report.overall_pass and report.isomorphism_certified(), name


def test_monk_zero_denominator_is_an_integrity_error(monkeypatch):
    # zero every diagonal value p_{v_J}(w_J): v_J is the one target of
    # length |J| whose letters all lie in J
    def drop_diagonal(u, w, c):
        return 0 if u.length == len(set(w.witness_word)) else c

    _counting_tables(monkeypatch, drop_diagonal)
    m = model("A2")
    with pytest.raises(IntegrityError, match="division by zero"):
        m.monk_coefficient(1, (), (1,))


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
    assert den == g2.subset_class((1, 2))[mask((1, 2))]


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


@pytest.mark.parametrize("name", SUITE + ["A2+A1", "E6", "E7"])
def test_monk_and_giambelli_records_match_fraction_oracle(name):
    # denominators cleared in integers against the identities summed in
    # Fractions: the same outcome, coefficients included; Giambelli for
    # every nonempty K, connected or not
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
    for K in m.subsets[1:]:
        n_words, holds = fraction_verify_giambelli(m, K)
        assert m.giambelli_holds(K) == (n_words, holds), (name, K)
        if is_connected(m.cartan, K):
            assert entries.pop(K) == {
                "K": list(K),
                "coefficient": fraction_text(Fraction(factorial(len(K)), n_words)),
                "reduced_words": n_words}
    assert entries == {}


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
    assert m.subset_class(K)[mask(L)] == 1
    failing = m.monk_failures()
    assert failing == [(i, J) for i in m.cartan.nodes() for J in m.subsets
                       if not fraction_verify_monk(m, i, J).passed]
    assert (1, K) in failing
    assert cli._check_monk(m).to_dict() == fraction_check_monk(m).to_dict()
    basis = m.verify_basis_triangular()
    assert basis.to_dict() == verify_basis_by_sets(m).to_dict()
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


def test_a_negative_coefficient_alone_fails_the_expansion():
    # row k = 0 with one cover J = 1, r_k[J] = 1 below r_J[J] = 2: for
    # p = (1, 0) the identity p r_k = p[k] r_k + c_J r_J holds at both
    # points with c_J = (0 - 1) * 1 / 2 = -1/2, so only the sign of c_J
    # fails it; for p = (0, 1), c_J = 1/2 and it passes.  The sign is read
    # off num_J den_J, which is not r_k[J] // r_J[J] = 0
    table = [[1, 1], [0, 2]]
    support = [{0, 1}, {1}]
    simple = [(1, 0), (0, 1)]
    assert peterson._expansion_failures(table, support, 0, [1], simple) == [0]


def test_monk_record_lists_failures_node_first(monkeypatch):
    # two doctored entries on B3, p_{v_{12}}(w_{12}) and p_{v_2}(w_{23})
    # each one more, fail identities of three K and three nodes; the record
    # lists them for i in node order, then K in subset order, as the
    # Fraction oracle fails them
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
    assert {K for _, K in expected} == {(1,), (2,), (3,)}
    assert {i for i, _ in expected} == {1, 2, 3}
    assert expected != sorted(expected, key=lambda iK: m.subsets.index(iK[1]))
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

def test_giambelli_needs_a_nonempty_K():
    # p_{v_()} = 1 needs no formula; the giambelli check reads the row of
    # () on its own and passes giambelli_holds only nonempty K
    m = model("A2")
    with pytest.raises(ValueError, match=r"nonempty K, got K = \(\)"):
        m.giambelli_holds(())


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
    assert enumerate_reduced_words(m.group, v) == {(1, 2, 3)}
    assert m.giambelli_holds((1, 2, 3)) == (1, True)
    assert giambelli_entry(m, (1, 2, 3)) == {
        "K": [1, 2, 3], "coefficient": "6/1", "reduced_words": 1}


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "A5", "D5", "E6", "E7",
                                                  "B2+G2", "A1+A1+A1"))
def test_giambelli_holds_on_disconnected_subsets(name):
    # the count of reduced words of v_K is the shuffle count
    # |K|!/prod |C|! times the counts of the v_C over the components C, so
    # Giambelli's coefficient for K is the product of those for the C and
    # the formula holds for every nonempty K, connected or not
    m = model(name)

    def count(v):
        return len(enumerate_reduced_words(m.group, v))

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
    assert product_holds(a3, (1, 3), [(1,), (3,)])
    assert product_holds(a3, (2,), [(), (2,)])  # degenerate
    a4 = model("A4")
    assert product_holds(a4, (1, 2, 4), [(1, 2), (4,)])
    mixed = model("A2+A1")
    assert product_holds(mixed, (1, 2, 3), [(1, 2), (3,)])
    # three components: sets that no pair of connected sets reaches
    assert product_holds(model("D4"), (1, 3, 4), [(1,), (3,), (4,)])
    assert product_holds(model("A5"), (1, 3, 5), [(1,), (3,), (5,)])


def test_product_fails_on_a_split_component():
    # p_{v_{12}} is not p_{s_1} p_{s_2}: the product rule needs the whole
    # connected components
    a4 = model("A4")
    assert not product_holds(a4, (1, 2, 4), [(1,), (2,), (4,)])
    assert product_holds(a4, (1, 2, 4), [(1, 2), (4,)])
    assert not product_holds(a4, (1, 2), [(1,), (2,)])


# -- basis -------------------------------------------------------------------

def test_basis_matrix_entries():
    # the rows are the basis matrix p_{v_K}(w_J) over t^|K|
    m = model("A2")
    assert value(m, (), ()) == 1
    assert value(m, (1,), (1,)) == 1
    assert value(m, (1, 2), (1,)) == 0


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
    assert m.quadric_rows == tuple(quadratic_combination(m, i)
                                   for i in m.cartan.nodes())


# -- the records against the oracles ---------------------------------------------

def failing_quadrics(m):
    """The nodes whose quadric, written out from the Cartan matrix, does
    not vanish on the rows."""
    return [i for i in m.cartan.nodes() if any(quadratic_combination(m, i))]


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6"))
def test_row_records_match_the_oracles(name):
    # quadratic, monk, giambelli (disconnected products included) and basis
    # on the int rows against the same records from the written-out
    # quadrics, the identities summed in Fractions and the support
    # condition by set inclusion
    m = model(name)
    quadratic = m.verify_quadratic_relations()
    assert quadratic.passed
    assert quadratic.witnesses["failing_rows"] == failing_quadrics(m) == []
    monk = cli._check_monk(m)
    assert monk.passed
    assert monk.to_dict() == fraction_check_monk(m).to_dict()
    giambelli = cli._check_giambelli(m)
    assert giambelli.passed
    assert giambelli.to_dict() == fraction_check_giambelli(m).to_dict()
    assert m.verify_basis_triangular().to_dict() == verify_basis_by_sets(m).to_dict()


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
    assert m.simple_class(2)[mask((1, 2))] == 3
    rec = m.verify_quadratic_relations()
    assert rec.witnesses["failing_rows"] == failing_quadrics(m)
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
    assert rec.to_dict() == fraction_check_giambelli(m).to_dict()
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


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A2+A1", "E6", "E7", "E8"))
def test_graded_dims_match_echelon_oracle(name):
    # the simple-row argument against the frontier recursion through an
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
    # no elimination: monk expands p_{s_i} p_{v_K} once per (i, K),
    # 6 * 64 = 384, each compared on the 2^(n - |K|) fixed points above K,
    # where row K or a cover row is nonzero
    m = model("E6")
    n = m.rank
    identities = []
    real = peterson._expansion_failures

    def counting(table, support, k, covers, simple):
        points = support[k].union(*map(support.__getitem__, covers))
        identities.extend([(k, len(points))] * len(simple))
        return real(table, support, k, covers, simple)

    monkeypatch.setattr(peterson, "_expansion_failures", counting)
    assert m.image_graded_dimensions(12) == [1, 7, 22, 42, 57, 63, 64]
    assert m.monk_failures() == []
    assert len(identities) == n * 2 ** n == 384
    assert all(points == 2 ** (n - K.bit_count()) for K, points in identities)


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
    # p_{s_1}(w_Delta) one more: support and diagonals hold, but theta_1 no
    # longer vanishes at w_Delta, so the quadric ring need not map onto the
    # degree-4 span; the echelon oracle sees the span grow past it
    n = model(name).rank
    top = tuple(range(1, n + 1))
    record, m, oracle = _doctored_graded_dims(
        monkeypatch, name, (1,), top, lambda c: c + 1)
    assert record.witnesses["computed"] == [1, 1 + n]
    assert record.witnesses["failure"] == {"kind": "quadric", "degree": 4, "i": 1}
    assert oracle != record.witnesses["expected"]
    assert m.verify_basis_triangular().passed
    assert not m.verify_quadratic_relations().passed


def test_graded_dims_fails_on_a_failing_minors_route_alone(monkeypatch):
    # true rows, but a symmetrizer that finds none: the Cartan minors no
    # longer bound (Q[x, t]/J)_4, so only degrees 0 and 2 are proven
    monkeypatch.setattr(commalg, "symmetrizer", lambda rows: None)
    m = model("B3")
    record = m.verify_graded_dimensions()
    assert record.witnesses == {
        "computed": [1, 4], "expected": [1, 4, 7, 8, 8, 8, 8],
        "failure": {"kind": "minors", "degree": 4}}
    assert m.verify_quadratic_relations().passed


def _set_entry(m, K, L, change):
    """Build the rows of ``m``, then replace the entry of row K at w_L by
    ``change(entry)``."""
    rows = [list(row) for row in m._rows]
    k, l = mask(K), mask(L)
    rows[k][l] = change(rows[k][l])
    m._rows = tuple(map(tuple, rows))


def test_giambelli_fails_when_the_row_of_one_is_not_one():
    # p_{v_()} = 1 needs no formula, but its row is checked, not assumed:
    # p_{v_()}(w_()) = 2 passes Monk's rule, which reads it times
    # p_{s_i}(w_()) - p_{s_i}(w_()) = 0
    m = model("A3")
    _set_entry(m, (), (), lambda c: c + 1)
    record = cli._check_giambelli(m)
    assert not record.passed
    assert record.witnesses["failures"] == [{"kind": "unit", "K": []}]
    assert cli._check_monk(m).passed


# -- every fault of one row entry or one word count --------------------------

def _faulty_runs(monkeypatch, name, fault_model):
    """A function of a fault that returns the full report of ``name`` on a
    model that ``fault_model(model, *fault)`` doctored after it was built."""
    build, fault = cli.PetersonModel, []

    def faulty(cartan, group=None):
        m = build(cartan, group)
        fault_model(m, *fault)
        return m

    monkeypatch.setattr(cli, "PetersonModel", faulty)

    def run(*entry):
        fault[:] = entry
        return run_certification(RunConfig(name))
    return run


@pytest.mark.parametrize("name", FAULT_TYPES)
def test_every_row_fault_fails_the_restriction_run_and_the_certificate(
        name, monkeypatch):
    # each entry of the rows one more or one less, set after the build:
    # the restriction checks fail, and so does a leg of the certificate.
    # billey_welldef, which recomputes every column from the column below
    # it, fails on each one too
    def moved(m, K, L, delta):
        _set_entry(m, K, L, lambda c: c + delta)

    run = _faulty_runs(monkeypatch, name, moved)
    subsets = model(name).subsets
    passing, certified, welldef = [], [], []
    for K in subsets:
        for L in subsets:
            for delta in (1, -1):
                report = run(K, L, delta)
                if all(r.passed for r in report.records if r.check in CLASS_CHECKS):
                    passing.append((K, L, delta))
                if report.isomorphism_certified():
                    certified.append((K, L, delta))
                if report.records[0].passed:
                    welldef.append((K, L, delta))
    assert report.records[0].check == "billey_welldef"
    assert passing == certified == welldef == []


@pytest.mark.parametrize("name", FAULT_TYPES)
def test_every_word_count_fault_fails_giambelli(name, monkeypatch):
    # #words(v_J) one more or one less, for each nonempty J: Giambelli's
    # step fails at K = J, or a zero count is an integrity error there
    def moved(m, J, delta):
        counts = list(m._word_counts)
        counts[mask(J)] += delta
        m._word_counts = counts

    run = _faulty_runs(monkeypatch, name, moved)
    passing = []
    for J in model(name).subsets[1:]:
        for delta in (1, -1):
            report = run(J, delta)
            giambelli = next(r for r in report.records if r.check == "giambelli")
            if giambelli.passed or report.isomorphism_certified():
                passing.append((J, delta))
    assert passing == []



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

    assert v_K(XY.group, K + shifted(L)).length == len(K) + len(L)
    assert value(XY, K + shifted(L), K_ + shifted(L_)) == \
        value(X, K, K_) * value(Y, L, L_)
