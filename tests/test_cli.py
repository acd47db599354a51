"""Pipeline orchestration: configs, reports, suites, CLI surface."""

import ast
import copy
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import petcoh
from petcoh import billey, cli, peterson
from petcoh.cli import (
    CHECK_ORDER,
    DEFAULT_SUITE,
    RunConfig,
    expected_equivariant_series,
    main,
    run_certification,
    run_suite,
)
from petcoh.peterson import PetersonModel
from petcoh.report import CheckRecord, ratio, strip_timing
from petcoh.roots import cartan_matrix
from petcoh.weyl import CayleyTable, WeylGroup, word_to_str

from oracles import (
    billey_welldef_per_word,
    enumerate_reduced_words,
    fraction_text,
    from_word,
    is_connected,
)


def test_run_config_validation():
    RunConfig(lie_type="A1")
    # the run options, each set on its own
    assert RunConfig.__slots__ == ("lie_type", "checks")
    with pytest.raises(ValueError):
        RunConfig(lie_type="A1", checks=("nope",))
    # the total rank is bounded before anything is built
    RunConfig(lie_type=f"A{cli.MAX_RANK}")
    with pytest.raises(ValueError, match=f"total rank 40; at most {cli.MAX_RANK}"):
        RunConfig(lie_type="A40")
    with pytest.raises(ValueError, match="total rank"):
        RunConfig(lie_type=f"A{cli.MAX_RANK - 1}+A2")


def test_run_config_rejects_a_bare_string_of_checks():
    # unchecked, "hilbert" would be read letter by letter as check names
    with pytest.raises(ValueError) as info:
        RunConfig("A2", "hilbert")
    assert str(info.value) == \
        "checks takes a sequence of check names, not 'hilbert'"
    assert RunConfig("A2", ("hilbert",)).checks == ("hilbert",)


def test_run_config_reads_a_one_shot_iterable_of_checks():
    # validating the names must not use up the only pass over them
    names = ["hilbert", "quadratic"]
    expected = ("quadratic", "hilbert")
    assert RunConfig("A2", iter(names)).checks == expected
    assert RunConfig("A2", (name for name in names)).checks == expected
    with pytest.raises(ValueError, match="unknown checks: \\['nope'\\]"):
        RunConfig("A2", iter(["hilbert", "nope"]))


def test_run_configs_are_frozen_values():
    config = RunConfig("B3", ("monk", "quadratic"))
    twin = RunConfig(lie_type="B3", checks=["quadratic", "monk"])
    assert config is not twin
    assert config == twin and hash(config) == hash(twin)
    assert config != RunConfig("B3") and config != RunConfig("C3", config.checks)
    for name in RunConfig.__slots__:
        with pytest.raises(AttributeError):
            setattr(config, name, "A1")
    assert config.lie_type == "B3"


def test_records_and_reports_compare_by_value_and_do_not_hash():
    def record(passed=True):
        return CheckRecord("hilbert", "A2", passed, {"rank": 2})

    assert record() == record() and record() != record(passed=False)
    assert record().witnesses == {}
    # a record passed or failed; "skipped" is a fixed key of its dict
    assert not hasattr(record(), "skipped")
    assert record(passed=False).to_dict()["skipped"] is False
    with pytest.raises(TypeError):
        CheckRecord("hilbert", "A2", True, skipped=False)
    report = run_certification(RunConfig("A1", ("quadratic",)))
    twin = run_certification(RunConfig("A1", ("quadratic",)))
    twin.timing = report.timing
    assert report == twin
    twin.records[0].passed = False
    assert report != twin
    for value in (record(), report):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_importing_petcoh_loads_no_dataclass_machinery():
    # a command-line run pays for every module the package imports; -S
    # keeps the site's .pth files, which may import anything, out
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(petcoh.__file__)))
    script = ("import sys, petcoh, petcoh.cli; print(sorted(set(sys.modules) & "
              "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'}))")
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_certification_A1_all_checks():
    report = run_certification(RunConfig(lie_type="A1"))
    assert report.overall_pass
    assert report.isomorphism_certified()
    by_name = {r.check: r for r in report.records}
    assert set(by_name) == set(CHECK_ORDER)
    hilbert = by_name["hilbert"]
    assert hilbert.witnesses["equivariant_series"] == \
        expected_equivariant_series(1).to_json()
    assert hilbert.witnesses["equivariant_series"] == {
        "numerator_coeffs": [1, 0, 1],
        "denominator_coeffs": [1, 0, -1],
    }


def test_certification_G2_monk_cross_check():
    report = run_certification(RunConfig(lie_type="G2", checks=("monk",)))
    assert report.overall_pass
    cross = report.records[0].witnesses["cartan_cross_check"]
    coeffs = {(item["i"], item["j"]): item["coefficient"] for item in cross}
    assert coeffs == {(1, 2): "1/1", (2, 1): "3/1"}


def test_empty_check_set_is_trivially_passing():
    report = run_certification(RunConfig(lie_type="A2", checks=()))
    assert report.records == []
    assert report.overall_pass
    assert not report.isomorphism_certified()  # no legs ran


CERTIFICATE_LEGS = ("billey_welldef", "quadratic", "giambelli", "basis", "hilbert")


def test_certificate_needs_the_basis_leg():
    partial = run_certification(RunConfig(
        lie_type="A2", checks=("billey_welldef", "quadratic", "giambelli", "hilbert")))
    assert partial.overall_pass
    assert not partial.isomorphism_certified()
    full = run_certification(RunConfig(lie_type="A2", checks=CERTIFICATE_LEGS))
    assert full.overall_pass
    assert full.isomorphism_certified()


@pytest.mark.parametrize("missing", CERTIFICATE_LEGS)
def test_certificate_needs_every_leg(missing):
    checks = tuple(c for c in CERTIFICATE_LEGS if c != missing)
    report = run_certification(RunConfig(lie_type="A2", checks=checks))
    assert report.overall_pass
    assert not report.isomorphism_certified()


def test_checks_run_in_dependency_order():
    config = RunConfig(lie_type="A2",
                       checks=("zero_set", "quadratic", "hilbert"))
    report = run_certification(config)
    assert [r.check for r in report.records] == \
        ["quadratic", "hilbert", "zero_set"]


def test_checks_are_stored_in_check_order_each_once(capsys):
    # the config a report prints lists the checks that ran, as they ran
    config = RunConfig("A2", checks=("zero_set", "monk", "monk", "quadratic"))
    assert config.checks == ("quadratic", "monk", "zero_set")
    assert RunConfig("A2", checks=list(reversed(CHECK_ORDER))).checks == CHECK_ORDER
    assert main(["certify", "--type", "A1", "--checks", "monk,monk",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"checks": ["monk"], "lie_type": "A1"}
    assert [c["check"] for c in payload["checks"]] == ["monk"]


def test_empty_check_items_are_dropped(capsys):
    # as in --types, a trailing comma names no check
    assert main(["certify", "--type", "A2", "--checks", "hilbert,",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == {"checks": ["hilbert"], "lie_type": "A2"}
    assert [c["check"] for c in payload["checks"]] == ["hilbert"]


def test_suite_of_one_type_matches_single_run():
    config = RunConfig(lie_type="B2")
    single = strip_timing(run_certification(config).to_dict())
    suite = run_suite(["B2"], config)
    assert strip_timing(suite["types"][0]) == single
    assert suite["overall_pass"]


def test_suite_includes_semisimple_disconnected_products():
    suite = run_suite(["A2+A1"], RunConfig(lie_type="A1"))
    entry = suite["types"][0]
    assert entry["overall_pass"]
    giambelli = next(c for c in entry["checks"] if c["check"] == "giambelli")
    assert giambelli["parameters"]["disconnected_subsets"] == 3
    assert giambelli["witnesses"]["products"] == [
        {"K": [1, 3], "components": [[1], [3]]},
        {"K": [2, 3], "components": [[2], [3]]},
        {"K": [1, 2, 3], "components": [[1, 2], [3]]},
    ]


@pytest.mark.parametrize("name", DEFAULT_SUITE + ("A5", "E6"))
def test_giambelli_reaches_every_nonempty_subset(name):
    model = PetersonModel(cartan_matrix(name))
    record = cli._check_giambelli(model)
    assert record.passed
    connected = [tuple(c["K"]) for c in record.witnesses["coefficients"]]
    products = {tuple(p["K"]): p["components"]
                for p in record.witnesses["products"]}
    nodes = range(1, model.rank + 1)
    nonempty = [K for k in nodes for K in combinations(nodes, k)]
    # each nonempty K reached exactly once
    assert sorted(connected + list(products)) == sorted(nonempty)
    assert all(is_connected(model.cartan, K) for K in connected)
    for K, components in products.items():
        assert len(components) >= 2
        assert sorted(x for C in components for x in C) == list(K)
        assert all(is_connected(model.cartan, C) for C in components)
    three_or_more = sorted(K for K, c in products.items() if len(c) >= 3)
    assert len(three_or_more) == {"D4": 1, "A5": 1, "E6": 11}.get(name, 0)
    if name in ("D4", "A5"):
        assert three_or_more == {"D4": [(1, 3, 4)], "A5": [(1, 3, 5)]}[name]


def test_broken_three_component_product_fails_and_does_not_certify(monkeypatch):
    # p_{v_{134}} on D4 is reached only as p_{s_1} p_{s_3} p_{s_4}; a model
    # whose row for it is doubled must not certify
    rows = peterson.restricted_rows

    def broken(group, subsets, steps):
        return tuple(tuple(2 * c for c in row) if K == (1, 3, 4) else row
                     for K, row in zip(subsets, rows(group, subsets, steps)))

    monkeypatch.setattr(peterson, "restricted_rows", broken)
    report = run_certification(RunConfig(
        lie_type="D4", checks=("quadratic", "giambelli", "basis", "hilbert")))
    by_name = {r.check: r for r in report.records}
    assert by_name["giambelli"].passed is False
    assert by_name["giambelli"].witnesses["failures"] == [
        {"kind": "disconnected_product", "K": [1, 3, 4]}]
    assert all(by_name[c].passed for c in ("quadratic", "basis", "hilbert"))
    assert not report.isomorphism_certified()


def test_a_full_run_builds_one_record_per_check(monkeypatch):
    # every identity of monk and giambelli is a bool on the rows; the only
    # records are the ones the report shows
    built = []

    def counting(*args, **kwargs):
        built.append(CheckRecord(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "CheckRecord", counting)
    monkeypatch.setattr(peterson, "CheckRecord", counting)
    report = run_certification(RunConfig("E6"))
    assert [r.check for r in report.records] == list(CHECK_ORDER)
    assert len(built) == len(CHECK_ORDER) == 9
    assert all(a is b for a, b in zip(built, report.records))


@pytest.mark.parametrize("witness", ["coefficients", "products"])
def test_certificate_needs_every_subset_reached(witness):
    report = run_certification(RunConfig(lie_type="A3"))
    assert report.isomorphism_certified()
    giambelli = next(r for r in report.records if r.check == "giambelli")
    giambelli.witnesses[witness].pop()
    assert report.overall_pass
    assert not report.isomorphism_certified()


def test_suite_isolates_type_failures():
    suite = run_suite(["A1", "Z9"], RunConfig(lie_type="A1"))
    assert not suite["overall_pass"]
    assert suite["types"][0]["overall_pass"]
    assert "error" in suite["types"][1]


def test_report_determinism():
    config = RunConfig(lie_type="A2")
    one = json.dumps(strip_timing(run_certification(config).to_dict()),
                     sort_keys=True)
    two = json.dumps(strip_timing(run_certification(config).to_dict()),
                     sort_keys=True)
    assert one == two


def _welldef_record(lie_type):
    report = run_certification(RunConfig(lie_type, checks=("billey_welldef",)))
    return report.records[0]


def test_a1_sweep_walks_its_whole_group():
    # A1 sweeps up to length 6, but its group has 2 elements
    record = _welldef_record("A1")
    assert record.to_dict() == {
        "check": "billey_welldef", "lie_type": "A1",
        "parameters": {"elements": 2, "max_length": 6},
        "witnesses": {"comparisons": 3, "failures": []},
        "pass": True, "skipped": False}


@pytest.mark.parametrize("lie_type", DEFAULT_SUITE + (
    "A2+A1", "A5", "D5", "E6", "E7", "E8"))
def test_billey_welldef_matches_per_word_oracle(lie_type):
    model = PetersonModel(cartan_matrix(lie_type))
    fast = cli._check_billey_welldef(model)
    assert fast.passed
    assert fast.to_dict() == billey_welldef_per_word(model).to_dict()


def _swept_elements(lie_type):
    """The group and the elements its billey_welldef sweep builds, by index."""
    group = WeylGroup(cartan_matrix(lie_type))
    return group, CayleyTable(
        group, cli._WELLDEF_LENGTH_BY_RANK.get(group.rank, 3)).elements


def _doctor_tables(monkeypatch, doctor):
    """Make the sweep's trie tables pass through doctor(tables) first."""
    build = cli.reduced_word_tables

    def doctored(*args):
        tables = build(*args)
        doctor(tables)
        return tables

    monkeypatch.setattr(cli, "reduced_word_tables", doctored)


def _assert_fails_without_certificate(lie_type, capsys):
    """A full run fails on billey_welldef alone, exits 1 and certifies
    nothing."""
    report = run_certification(RunConfig(lie_type))
    assert not report.overall_pass
    assert all(r.passed for r in report.records if r.check != "billey_welldef")
    assert not report.isomorphism_certified()
    assert main(["certify", "--type", lie_type]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] billey_welldef" in out
    assert "isomorphism certified: False" in out


def test_billey_welldef_catches_one_perturbed_word(monkeypatch, capsys):
    # one coefficient of sigma_{w0}(w0) changed in place in the table of the
    # non-witness reduced word of w0(A2): a table aliased with the witness
    # word's would change with it and hide the failure
    group, elements = _swept_elements("A2")
    w0 = elements[-1]
    top = len(elements) - 1
    (other,) = enumerate_reduced_words(group, w0) - {w0.witness_word}

    def perturb(tables):
        terms = tables[top][other][top]
        terms[next(iter(terms))] += 1

    _doctor_tables(monkeypatch, perturb)
    record = _welldef_record("A2")
    assert not record.passed
    assert record.witnesses["failures"] == [{
        "kind": "witness_dependence",
        "v": ",".join(map(str, w0.witness_word)),
        "w_word": ",".join(map(str, other))}]
    assert main(["certify", "--type", "A2", "--checks", "billey_welldef"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_billey_welldef_catches_one_changed_entry_past_the_first_target(
        monkeypatch):
    # sigma_{s_2}(w) raised by one in the table of one non-witness word of
    # the last swept element of A3: the whole-table comparison must fall
    # back to the per-target loop and name exactly that (v, word)
    group, elements = _swept_elements("A3")
    top = len(elements) - 1
    w = elements[top]
    word = min(enumerate_reduced_words(group, w) - {w.witness_word})
    v = elements.index(from_word(group, (2,)))
    assert v > 0

    def change(tables):
        table = tables[top][word]
        table[v] = {exps: c + 1 for exps, c in table[v].items()}

    _doctor_tables(monkeypatch, change)
    record = _welldef_record("A3")
    assert not record.passed
    assert record.witnesses["failures"] == [{
        "kind": "witness_dependence", "v": "2", "w_word": word_to_str(word)}]


def test_billey_welldef_catches_one_inhomogeneous_value(monkeypatch, capsys):
    # one exponent of sigma_{s_1}(w0) raised in the witness word's table of
    # A2: exactly one degree failure, and the other word of w0 now differs
    # from the baseline there
    group, elements = _swept_elements("A2")
    w0 = elements[-1]
    top = len(elements) - 1
    s1 = elements.index(from_word(group, (1,)))
    (other,) = enumerate_reduced_words(group, w0) - {w0.witness_word}

    def raise_exponent(tables):
        table = tables[top][w0.witness_word]
        (exps, c), *rest = table[s1].items()
        table[s1] = {(exps[0] + 1,) + exps[1:]: c, **dict(rest)}

    _doctor_tables(monkeypatch, raise_exponent)
    record = _welldef_record("A2")
    assert not record.passed
    w0_name = word_to_str(w0.witness_word)
    assert record.witnesses["failures"] == [
        {"kind": "degree", "v": "1", "w": w0_name},
        {"kind": "witness_dependence", "v": "1", "w_word": word_to_str(other)}]
    _assert_fails_without_certificate("A2", capsys)


def test_billey_welldef_catches_one_dropped_interval_member(monkeypatch,
                                                           capsys):
    # s_1 taken out of [e, w0] of A2: sigma_{s_1}(w0) != 0 must then read
    # as exactly one vanishing failure, the run must fail (exit 1), and,
    # billey_welldef being a leg, it must not certify
    group, elements = _swept_elements("A2")
    w0 = elements[-1]
    assert w0.length == 3
    dropped = elements.index(from_word(group, (1,)))
    build = CayleyTable.bruhat_intervals

    def dropping(self):
        intervals = build(self)
        intervals[-1] = intervals[-1] - {dropped}
        return intervals

    monkeypatch.setattr(CayleyTable, "bruhat_intervals", dropping)
    record = _welldef_record("A2")
    assert not record.passed
    assert record.witnesses["failures"] == [
        {"kind": "vanishing", "v": "1", "w": word_to_str(w0.witness_word)}]
    _assert_fails_without_certificate("A2", capsys)


def test_reduced_word_count_mismatch_is_an_integrity_error(monkeypatch,
                                                           capsys):
    # the trie's words of s_2 s_1 in A2 against a count one too high: the
    # record fails with the integrity error, and the run certifies nothing
    group = WeylGroup(cartan_matrix("A2"))
    s2s1 = from_word(group, (2, 1))
    count = WeylGroup.count_reduced_words

    def one_too_many(self, w):
        return count(self, w) + (w == s2s1)

    monkeypatch.setattr(WeylGroup, "count_reduced_words", one_too_many)
    record = _welldef_record("A2")
    assert record.to_dict() == {
        "check": "billey_welldef", "lie_type": "A2", "parameters": {},
        "witnesses": {"integrity_error": "the trie lists 1 reduced words "
                      "of 2,1, but it has 2"},
        "pass": False, "skipped": False}
    _assert_fails_without_certificate("A2", capsys)


def _assert_integrity_failure(lie_type, check, message, capsys):
    """A full run records message as the integrity error of check, fails,
    exits 1 and certifies nothing."""
    report = run_certification(RunConfig(lie_type))
    record = next(r for r in report.records if r.check == check)
    assert record.to_dict() == {
        "check": check, "lie_type": lie_type, "parameters": {},
        "witnesses": {"integrity_error": message},
        "pass": False, "skipped": False}
    assert not report.overall_pass
    assert not report.isomorphism_certified()
    assert main(["certify", "--type", lie_type]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] {check}" in out
    assert "isomorphism certified: False" in out


def test_non_positive_inversion_root_is_an_integrity_error(monkeypatch,
                                                           capsys):
    # the root (1, 1) of A2's w_0 read as not positive: the rows, and so
    # the first check that reads them, stop on it
    monkeypatch.setattr(billey, "is_positive_root_vector",
                        lambda root: root != (1, 1))
    _assert_integrity_failure(
        "A2", "quadratic", "r(i, w) = (1, 1) is not a positive root", capsys)


def test_wrong_subset_step_is_an_integrity_error(monkeypatch, capsys):
    # the steps' group reads every node as a descent of every v_J, so s_2
    # looks like a descent of v_{1} = s_1; the sweep's group is left alone
    steps = billey.subset_steps

    def every_node_a_descent(group):
        doctored = copy.copy(group)
        doctored.descents = lambda action: list(group.cartan.nodes())
        return steps(doctored)

    monkeypatch.setattr(billey, "subset_steps", every_node_a_descent)
    _assert_integrity_failure(
        "A2", "quadratic", "v_J s_b is not v_(J - b) for J = 0b1, b = 2",
        capsys)


def test_non_reduced_v_K_is_an_integrity_error(monkeypatch, capsys):
    # the steps lose v_{1}'s one descent step, as if v_{1} = s_1 had length
    # 0: it has no reduced word of length 1, and giambelli, which counts
    # the reduced words of each v_K on the steps, stops on it
    steps = billey.subset_steps

    def without_v1_step(group):
        out = steps(group)
        out[1].remove((0b1, 0b0))
        return out

    monkeypatch.setattr(billey, "subset_steps", without_v1_step)
    _assert_integrity_failure(
        "A2", "giambelli", "v_K for K = (1,) is not reduced", capsys)


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements; every integrity check raises an
    # IntegrityError, not an AssertionError that reads as a test failure
    root = os.path.dirname(petcoh.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [(name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or isinstance(node, ast.Name)
                      and node.id == "AssertionError"]
    assert found == []


@pytest.mark.parametrize("argv", [
    ["certify", "--type", "A2", "--checks", ""],
    ["certify", "--type", "A2", "--checks", ","],
    ["suite", "--types", "A1,A2", "--checks", ""],
    ["suite", "--types", "", "--checks", "quadratic"],
], ids=["certify-no-checks", "certify-empty-items", "suite-no-checks",
        "suite-no-types"])
def test_run_that_proved_nothing_exits_3(argv, capsys):
    # no check selected, or a suite with no types
    assert main(argv) == 3
    # the report itself is unchanged: nothing failed
    assert "FAIL" not in capsys.readouterr().out


def test_model_checks_are_looked_up_when_they_run(monkeypatch):
    # a wrapper set on PetersonModel after import is the one a run calls
    called = []

    def wrap(name):
        real = getattr(PetersonModel, name)

        def wrapper(self):
            called.append(name)
            return real(self)

        monkeypatch.setattr(PetersonModel, name, wrapper)

    names = ("verify_quadratic_relations", "verify_basis_triangular",
             "verify_graded_dimensions")
    for name in names:
        wrap(name)
    report = run_certification(RunConfig(
        "A2", checks=("quadratic", "basis", "graded_dims")))
    assert report.overall_pass
    assert called == list(names)


def test_failed_check_exits_1(monkeypatch, capsys):
    def failing(model):
        return CheckRecord(check="quadratic", lie_type=model.type_name(),
                           passed=False)

    monkeypatch.setitem(cli._CHECK_FUNCTIONS, "quadratic", failing)
    assert main(["certify", "--type", "A1", "--checks", "quadratic"]) == 1
    assert main(["suite", "--types", "A1,G2", "--checks", "quadratic"]) == 1
    # a suite type that could not run fails the suite, the others passing
    monkeypatch.undo()
    run = cli.run_certification

    def blows_up_on_g2(config):
        if config.lie_type == "G2":
            raise RuntimeError("G2 could not run")
        return run(config)

    monkeypatch.setattr(cli, "run_certification", blows_up_on_g2)
    assert main(["suite", "--types", "A1,G2", "--checks", "hilbert"]) == 1
    assert "[ERROR] G2 could not run" in capsys.readouterr().out


@pytest.mark.parametrize("report,digest", [
    (lambda: run_suite(DEFAULT_SUITE),
     "513c7669ff25a8243234731c753d0f666ba8c12b023d6795b3c7531a22076e17"),
    (lambda: run_certification(RunConfig(
        "E6", checks=("quadratic", "monk", "giambelli", "basis",
                      "graded_dims"))).to_dict(),
     "ff1db3adf3a4a0b538dab17e70c5d4e456bbf0f0e19cf7adafc4845c3836464f"),
    (lambda: run_certification(RunConfig(
        "E7", checks=("hilbert", "regular_sequence", "zero_set"))).to_dict(),
     "5360f078f04a704e0b62f3d466317384ef255232af97d44de18560cce8a93db5"),
    (lambda: run_certification(RunConfig("E8")).to_dict(),
     "734bb608b5919d6ae1623a6a7d90fea5367be5a2b340c9c903d387fd4a118524"),
], ids=["default-suite", "E6-restriction", "E7-quadric", "E8-certify"])
def test_default_suite_report_is_pinned(report, digest):
    # the refactor gate: the timing-free report, byte for byte
    blob = json.dumps(strip_timing(report()), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_main_certify_exit_code_and_json(tmp_path):
    out = tmp_path / "g2.json"
    code = main(["certify", "--type", "G2", "--checks", "all",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["overall_pass"] is True
    assert payload["isomorphism_certified"] is True
    assert payload["lie_type"] == "G2"
    assert payload["schema_version"] == 1
    # a run is configured by its type and its checks alone
    assert payload["config"] == {"checks": list(CHECK_ORDER), "lie_type": "G2"}


def test_python_dash_m_runs_the_cli(tmp_path):
    # `python -m petcoh` from a checkout, with only the source directory on
    # the path
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(petcoh.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "petcoh", "certify", "--type", "A2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "isomorphism certified: True" in result.stdout


def test_main_text_output(capsys):
    code = main(["certify", "--type", "A1", "--checks", "quadratic,hilbert"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "[PASS] quadratic" in captured
    assert "[PASS] hilbert" in captured
    assert "overall: PASS" in captured


def test_main_suite_subset(tmp_path):
    out = tmp_path / "suite.json"
    code = main(["suite", "--types", "A1,G2", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert [t["lie_type"] for t in payload["types"]] == ["A1", "G2"]
    assert payload["overall_pass"] is True


def test_main_rejects_unknown_check():
    with pytest.raises(SystemExit):
        main(["certify", "--type", "A1", "--checks", "bogus"])


@pytest.mark.parametrize("argv", [
    ["certify", "--type", "X9"],
    ["certify", "--type", "E9"],
    ["suite", "--types", "A1,Z9"],
    ["suite", "--types", "A1,E9"],
    ["certify", "--type", "A1", "--cutoff-degree", "3"],
    ["certify", "--type", "A1", "--cutoff-degree", "26"],
    ["certify", "--type", "A1", "--word-cap", "-1"],
    ["suite", "--types", "A1", "--word-cap", "-1"],
    ["certify", "--type", "A1", "--word-cap", "16"],
    ["suite", "--types", "A1", "--word-cap", "16"],
    ["certify", "--type", "A1", "--out", "/nonexistent/x.json"],
    ["suite", "--types", "A1", "--out", "/nonexistent/x.json"],
    ["certify", "--type", "A40"],
    ["suite", "--types", "A1,A40"],
    ["certify", "--type", f"A{cli.MAX_RANK}+A1"],
    ["certify", "--type", "A\u0663"],
    ["suite", "--types", "A1,A\u0663"],
    ["certify", "--type", "A\uff13"],
    ["suite", "--types", "A1,A\uff13"],
], ids=["bad-type", "rank-out-of-range", "suite-bad-type",
        "suite-rank-out-of-range", "odd-cutoff", "cutoff-over-max",
        "negative-word-cap", "suite-negative-word-cap", "word-cap",
        "suite-word-cap", "unwritable-out", "suite-unwritable-out",
        "rank-over-max", "suite-rank-over-max", "total-rank-over-max",
        "arabic-indic-digit", "suite-arabic-indic-digit",
        "fullwidth-digit", "suite-fullwidth-digit"])
def test_bad_input_is_a_one_line_usage_error(argv, monkeypatch, capsys):
    runs = []  # a suite would swallow an exception raised here
    monkeypatch.setattr(cli, "run_certification", runs.append)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--checks", "quadratic"])
    assert exc.value.code == 2
    assert runs == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("petcoh: error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("lie_type,cutoff,dims", [
    ("A2", 12, [1, 3] + [4] * 5),
    ("E6", 12, [1, 7, 22, 42, 57, 63, 64]),
    ("E7", 14, [1, 8, 29, 64, 99, 120, 127, 128]),
    ("E8", 16, [1, 9, 37, 93, 163, 219, 247, 255, 256]),
], ids=["A2", "E6", "E7", "E8"])
def test_graded_dims_cutoff_comes_from_the_rank(lie_type, cutoff, dims, capsys):
    # every degree through max(12, 2 * rank): the dimensions are constant
    # from degree 2 * rank on, and the floor keeps degrees 0..12 listed
    assert main(["certify", "--type", lie_type, "--checks", "graded_dims",
                 "--format", "json"]) == 0
    record, = json.loads(capsys.readouterr().out)["checks"]
    assert record["pass"]
    assert record["parameters"] == {"cutoff_degree": cutoff}
    assert record["witnesses"] == {"computed": dims, "expected": dims}


@pytest.mark.parametrize("num,den", [
    (0, 1), (0, -7), (5, 1), (6, 4), (-6, 4), (6, -4), (-6, -4), (3, 9),
    (-24, -24), (720, 1), (7, -1)])
def test_ratio_is_the_text_of_the_fraction(num, den):
    assert ratio(num, den) == fraction_text(Fraction(num, den))


def test_ratio_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)


def test_star_import_and_export_list():
    namespace = {}
    exec("from petcoh import *", namespace)
    assert set(petcoh.__all__) <= set(namespace)
    assert len(petcoh.__all__) == len(set(petcoh.__all__))
    for name in petcoh.__all__:
        assert getattr(petcoh, name) is namespace[name], name
    assert "PetersonClass" not in petcoh.__all__
    assert "FixedPoint" not in petcoh.__all__ and not hasattr(petcoh, "FixedPoint")
    # the regular-sequence check reads cached series; the reference path
    # that builds J + (t) lives in the test oracles
    assert "is_regular_sequence" not in petcoh.__all__
    assert not hasattr(petcoh, "is_regular_sequence")
    # no check computes a Hilbert numerator or reads a basis's leads; that
    # route by elimination lives in the test oracles
    for name in ("hilbert_series_of_quotient", "t_section_hilbert_series",
                 "t_section_leads", "zero_set_is_origin"):
        assert name not in petcoh.__all__ and not hasattr(petcoh, name), name
    # a polynomial is plain term data; the Poly class lives in the oracles
    assert "Poly" not in petcoh.__all__
    assert not hasattr(petcoh, "Poly") and not hasattr(petcoh.commalg, "Poly")


def test_default_suite_contents():
    assert DEFAULT_SUITE == ("A1", "A2", "A3", "A4", "B2", "B3", "C3",
                             "D4", "F4", "G2")
