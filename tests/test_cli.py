"""Pipeline orchestration: configs, reports, suites, CLI surface."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import inf, nan

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import petcoh
from petcoh import billey, cli, peterson, roots
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
from petcoh.report import (
    CertificationReport,
    CheckRecord,
    _dumps,
    ratio,
    strip_timing,
)
from petcoh.roots import cartan_matrix
from petcoh.weyl import WeylGroup

import oracles
from oracles import (
    billey_welldef_per_word,
    fraction_text,
    indented_json,
    is_connected,
    mask,
    matrix_restricted_rows,
    matrix_subset_steps,
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


def test_run_config_of_the_wrong_type_is_a_one_line_value_error():
    # as LieType, CartanMatrix and Ideal do, a value of the wrong type is
    # named in one line
    for args, message in (
            ((None,), "Lie type None is not a str"),
            (("A2", None), "checks takes a sequence of check names, not None"),
            (("A2", 3), "checks takes a sequence of check names, not 3"),
            # a name that cannot be hashed or sorted is still unknown
            (("A2", [[1]]), "unknown checks: [[1]]"),
            (("A2", [1, "nope"]), "unknown checks: ['nope', 1]")):
        with pytest.raises(ValueError) as info:
            RunConfig(*args)
        assert str(info.value) == message


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


_FOOTPRINT_SCRIPT = """
import json, sys
import petcoh.cli as cli
from petcoh import weyl

built = []  # each Weyl group a run builds
init = weyl.WeylGroup.__init__
weyl.WeylGroup.__init__ = lambda self, cartan: built.append(cartan) or init(self, cartan)
reports = []  # each report the suite makes, for its entry
certify = cli.run_certification
cli.run_certification = lambda config: reports.append(certify(config)) or reports[-1]
suite = cli.run_suite(cli.DEFAULT_SUITE)
entries_equal = [entry == report.to_dict() for entry, report in zip(suite["types"], reports)]
del built[:]
cli.run_certification(cli.RunConfig("E7", ("hilbert", "regular_sequence", "zero_set")))
quadric_groups = len(built)
cli.run_certification(cli.RunConfig("A3"))
full_groups = len(built) - quadric_groups
heapq_loaded = "heapq" in sys.modules

# the engine, which no run calls, still works once it loads heapq itself
from petcoh.commalg import build_ideal_J, groebner_basis
from petcoh.roots import cartan_matrix
from oracles import as_term_list, buchberger_groebner_basis, monic_reduced_basis
ideal = build_ideal_J(cartan_matrix("A3"))
engine = [as_term_list(g) for g in monic_reduced_basis(groebner_basis(ideal))]
oracle = [as_term_list(g) for g in buchberger_groebner_basis(ideal)]
print(json.dumps({"heapq_loaded": heapq_loaded, "engine_is_oracle": engine == oracle,
                  "quadric_groups": quadric_groups, "full_groups": full_groups,
                  "entries": len(entries_equal), "entries_equal": all(entries_equal)}))
"""


def test_a_run_loads_and_builds_only_what_it_executes():
    # in a fresh interpreter: no run loads heapq, which only the Groebner
    # engine uses; neither a quadric run nor a full run builds a Weyl group;
    # a suite entry is its report's fields, equal to the report's to_dict
    src = os.path.dirname(os.path.dirname(petcoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.path.dirname(os.path.abspath(__file__))]))
    result = subprocess.run([sys.executable, "-S", "-c", _FOOTPRINT_SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "heapq_loaded": False, "engine_is_oracle": True, "quadric_groups": 0,
        "full_groups": 0, "entries": len(DEFAULT_SUITE), "entries_equal": True}


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


def test_empty_check_set_proves_nothing(capsys):
    # no check ran, so the run does not pass, though none failed
    report = run_certification(RunConfig(lie_type="A2", checks=()))
    assert report.records == []
    assert not report.overall_pass
    assert not report.isomorphism_certified()  # no legs ran
    assert main(["certify", "--type", "A2", "--checks", ""]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "== certification: A2 ==",
        "overall: FAIL | isomorphism certified: False"]


def test_suite_of_no_checks_proves_nothing():
    suite = run_suite(["A1", "G2"], RunConfig("A1", checks=()))
    assert [entry["overall_pass"] for entry in suite["types"]] == [False, False]
    assert suite["overall_pass"] is False
    assert cli.exit_status(suite["types"]) == 3


def test_suite_of_no_types_proves_nothing():
    suite = run_suite([])
    assert suite["types"] == []
    assert suite["overall_pass"] is False
    assert cli.exit_status(suite["types"]) == 3


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

    def broken(cartan, steps):
        return tuple(tuple(2 * c for c in row) if K == mask((1, 3, 4)) else row
                     for K, row in enumerate(rows(cartan, steps)))

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


def test_billey_welldef_record_of_a2():
    # a passing record: the number of fixed points, and no failing one
    report = run_certification(RunConfig("A2", checks=("billey_welldef",)))
    assert report.records[0].to_dict() == {
        "check": "billey_welldef", "lie_type": "A2",
        "parameters": {"fixed_points": 4}, "witnesses": {"failures": []},
        "pass": True, "skipped": False}


@pytest.mark.parametrize("lie_type", DEFAULT_SUITE + (
    "A2+A1", "A5", "D5", "E6", "E7", "E8"))
def test_billey_welldef_matches_per_word_oracle(lie_type):
    # the check on the rows, the per-word test of Billey's theorem up to a
    # length, and the package's walk along a second reduced word of each
    # w_L agree: none finds a failure
    model = PetersonModel(cartan_matrix(lie_type))
    assert cli._check_billey_welldef(model).passed
    assert billey_welldef_per_word(model) == []
    assert oracles.second_word_failures(model.cartan, model._steps,
                                        model._rows) == []


def _doubled_steps(monkeypatch):
    """``_ascend`` adds each step's term twice."""
    ascend = billey._ascend
    monkeypatch.setattr(billey, "_ascend", lambda cartan, heights, K, steps,
                        values: ascend(cartan, heights, K, {
                            b: [pair for pair in pairs for _ in (0, 1)]
                            for b, pairs in steps.items()}, values))


def _local_steps_without_singletons(monkeypatch):
    """``_local_steps`` drops every step with J = {b}."""
    local_steps = billey._local_steps
    monkeypatch.setattr(billey, "_local_steps", lambda steps, size: (
        {b: [(J, lower) for J, lower in pairs if J & J - 1]
         for b, pairs in local.items()} for local in local_steps(steps, size)))


def _subset_steps_without_letter_one(monkeypatch):
    """``subset_steps`` drops every step of the letter b = 1."""
    subset_steps = billey.subset_steps
    monkeypatch.setattr(billey, "subset_steps",
                        lambda cartan: {**subset_steps(cartan), 1: []})


@pytest.mark.parametrize("fault", [
    _doubled_steps, _local_steps_without_singletons,
    _subset_steps_without_letter_one])
@pytest.mark.parametrize("lie_type", ["A3", "B3", "G2", "A2+A1"])
def test_a_fault_in_the_walk_fails_billey_welldef(monkeypatch, fault,
                                                  lie_type):
    # three faults in the walk that builds the rows: each changes the
    # rows, and the closed form, which reads none of the walk's code, sees
    # them; a second walk on the same code would repeat them
    fault(monkeypatch)
    report = run_certification(RunConfig(lie_type))
    [welldef] = [r for r in report.records if r.check == "billey_welldef"]
    assert not welldef.passed and welldef.witnesses["failures"]
    assert not report.isomorphism_certified()


@pytest.mark.parametrize("lie_type", ["A3", "B3", "G2", "A2+A1"])
def test_an_ascent_that_takes_the_last_ascent_first_still_certifies(
        monkeypatch, lie_type):
    # another greedy ascent spells another reduced word of each w_L, so by
    # Billey's theorem it builds the same rows
    ascend = billey._ascend
    monkeypatch.setattr(billey, "_ascend", lambda cartan, heights, K, steps,
                        values: ascend(cartan, heights, K[::-1], steps, values))
    report = run_certification(RunConfig(lie_type))
    assert report.overall_pass and report.isomorphism_certified()


def test_billey_welldef_runs_no_code_of_the_walk(monkeypatch):
    # once the rows are built, the check reads the Cartan matrix, the
    # Dynkin components and the rows, and calls nothing the walk runs;
    # the second walk is test code, in no module of the package
    def refuse(*args):
        raise AssertionError("billey_welldef ran the walk")

    for name in DEFAULT_SUITE + ("A2+A1", "B2+G2"):
        model = PetersonModel(cartan_matrix(name))
        model._rows
        peterson._closed_form.cache_clear()
        with monkeypatch.context() as patch:
            for walk in ("subset_steps", "_local_steps", "_ascend", "_reflect",
                         "restricted_rows"):
                patch.setattr(billey, walk, refuse)
            patch.setattr(roots.CartanMatrix, "column_updates", refuse)
            assert cli._check_billey_welldef(model).passed, name
    modules = [importlib.import_module(f"petcoh.{info.name}") for info in
               pkgutil.iter_modules(petcoh.__path__) if info.name != "__main__"]
    assert not any(hasattr(owner, "second_word_failures")
                   for owner in modules + [PetersonModel])


class _FiringSteps(dict):
    """The steps of one ascent, with 1 added to ``values`` at J = {1, 2}
    each time the step (J, J - b) there fires."""

    def __init__(self, steps, values):
        super().__init__(steps)
        self.values = values

    def __getitem__(self, b):
        for J, lower in super().__getitem__(b):
            yield J, lower
            if J == 0b11:
                self.values[J] += 1


@pytest.mark.parametrize("lie_type,failing", [
    ("A3", [[1, 2], [1, 2, 3]]), ("B3", [[1, 2], [1, 2, 3]]), ("G2", [[1, 2]])],
    ids=["A3", "B3", "G2"])
def test_a_faulty_ascent_step_fails_billey_welldef(monkeypatch, lie_type,
                                                   failing):
    # the step J = {1, 2} adds 1 more each time it fires in the row build:
    # row {1, 2} is off its closed form at every L that holds 1 and 2
    ascend = billey._ascend
    monkeypatch.setattr(billey, "_ascend", lambda cartan, heights, K, steps,
                        values: ascend(cartan, heights, K,
                                       _FiringSteps(steps, values), values))
    report = run_certification(RunConfig(lie_type))
    [welldef] = [r for r in report.records if r.check == "billey_welldef"]
    assert not welldef.passed
    assert welldef.witnesses["failures"] == failing
    assert not report.isomorphism_certified()


@pytest.mark.parametrize("output_format", ["json", "text"])
def test_certify_reads_its_exit_status_off_the_records(monkeypatch,
                                                       output_format):
    # certify prints its report and reads the pass flags off the records:
    # it never copies the report with to_dict, for exit status 0, 3 or 1
    def spy(self):
        raise AssertionError("certify copied its report with to_dict")

    monkeypatch.setattr(CertificationReport, "to_dict", spy)
    certify = ["certify", "--type", "A2", "--format", output_format]
    assert main(certify) == 0
    assert main(certify + ["--checks", ""]) == 3
    monkeypatch.setattr(PetersonModel, "closed_form_failures",
                        lambda self: [(1, 2)])
    assert main(certify) == 1


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


def test_closed_form_off_the_positive_integers_is_an_integrity_error(
        monkeypatch, capsys):
    # A2's one-node Cartan matrices (2,) read as (4,): x = 2 / 4 solves
    # 4 x = 2, not a positive integer, so the closed form of the node set
    # {1} stops on it.  The record of billey_welldef is the integrity
    # error, and the run certifies nothing
    closed_form = peterson._closed_form
    monkeypatch.setattr(peterson, "_closed_form", lambda n, entries: closed_form(
        n, (4,) if entries == (2,) else entries))
    _assert_integrity_failure(
        "A2", "billey_welldef", "A = (4,) has no closed form in positive "
        "integers", capsys)


def _matrix_route(monkeypatch):
    """Build the model's steps and rows by the matrix walk of the oracles,
    on a Weyl group of its Cartan matrix, as the package ran before it
    walked on heights."""
    monkeypatch.setattr(billey, "subset_steps",
                        lambda cartan: matrix_subset_steps(WeylGroup(cartan)))
    monkeypatch.setattr(peterson, "restricted_rows", lambda cartan, steps:
                        matrix_restricted_rows(WeylGroup(cartan), steps))


def _doctor_heights(monkeypatch, doctor):
    """Let ``doctor(heights)`` rewrite every vector ``billey._reflect``
    returns."""
    reflect = billey._reflect
    monkeypatch.setattr(billey, "_reflect", lambda heights, b, updates:
                        doctor(reflect(heights, b, updates)))


def test_non_positive_inversion_root_is_an_integrity_error(monkeypatch,
                                                           capsys):
    # on the matrix route, the root (1, 1) of A2's w_0 read as not
    # positive: the rows, and so the first check that reads them, stop on it
    _matrix_route(monkeypatch)
    monkeypatch.setattr(roots, "is_positive_root_vector",
                        lambda root: root != (1, 1))
    _assert_integrity_failure(
        "A2", "quadratic", "r(i, w) = (1, 1) is not a positive root", capsys)


def test_zero_height_on_an_ascent_is_an_integrity_error(monkeypatch, capsys):
    # the heights (-1, 2) of s_1 read as (-1, 0) where the ascent to A2's
    # w_0 starts from them: the root s_1(alpha_2) = alpha_1 + alpha_2 has
    # height 2, and no root has height 0.  The rows, and so the first
    # check that reads them, stop on it
    ascend = billey._ascend

    def doctored(cartan, heights, K, steps, values):
        if K == (1, 2):
            heights = (-1, 0)
        return ascend(cartan, heights, K, steps, values)

    monkeypatch.setattr(billey, "_ascend", doctored)
    _assert_integrity_failure(
        "A2", "quadratic", "ht w(alpha_2) = 0 on the ascent to w_K for "
        "K = (1, 2); no root has height 0", capsys)


def test_zero_height_in_the_steps_is_an_integrity_error(monkeypatch, capsys):
    # the heights (-1, 2) of v_{1} = s_1 read as (0, 2): the steps stop on
    # them
    _doctor_heights(monkeypatch, lambda h: (0, 2) if h == (-1, 2) else h)
    _assert_integrity_failure(
        "A2", "quadratic", "ht v_J(alpha_1) = 0 for J = 0b1; no root has "
        "height 0", capsys)


def test_ascent_that_ends_off_minus_one_is_an_integrity_error(monkeypatch,
                                                              capsys):
    # the identity's heights read as (2, 2) where the walk starts, so the
    # ascent to w_{1} = s_1 ends at (-2, 4): w_K sends the simple roots of
    # K to negative simple roots, of height -1
    ascend = billey._ascend
    monkeypatch.setattr(billey, "_ascend", lambda cartan, heights, K, *rest:
                        ascend(cartan, heights if K else (2, 2), K, *rest))
    _assert_integrity_failure(
        "A2", "quadratic", "the ascent to w_K for K = (1,) ends at heights "
        "(-2, 4), not -1 on K", capsys)


def test_wrong_subset_step_is_an_integrity_error(monkeypatch, capsys):
    # on the matrix route, the steps' group reads every node as a descent
    # of every v_J, so s_2 looks like a descent of v_{1} = s_1; the
    # sweep's group is left alone
    _matrix_route(monkeypatch)
    monkeypatch.setattr(oracles, "descents",
                        lambda group, action: list(group.cartan.nodes()))
    _assert_integrity_failure(
        "A2", "quadratic", "v_J s_b is not v_(J - b) for J = 0b1, b = 2",
        capsys)


def test_wrong_subset_step_on_heights_is_an_integrity_error(monkeypatch,
                                                            capsys):
    # the heights (-1, 2) of v_{1} = s_1 read as (-1, -2): s_1 is still a
    # descent, but v_{1} s_1 then has the heights (1, -3), not the
    # identity's (1, 1).  Read as (1, -2), s_2 looks like a descent of
    # v_{1}, though J - 2 is not below J = {1}.  The sweep, which reads
    # matrices, is left alone
    for doctored, b in (((-1, -2), 1), ((1, -2), 2)):
        with monkeypatch.context() as patch:
            _doctor_heights(patch, lambda h: doctored if h == (-1, 2) else h)
            _assert_integrity_failure(
                "A2", "quadratic",
                f"v_J s_b is not v_(J - b) for J = 0b1, b = {b}", capsys)


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
    # no check failed, and the run that proved nothing does not pass
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "overall: FAIL" in out


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
     "e546dcc3023208e52706b752e0ee69991ad6c86e4d8b523302a488209dfeb4f9"),
    (lambda: run_certification(RunConfig(
        "E6", checks=("quadratic", "monk", "giambelli", "basis",
                      "graded_dims"))).to_dict(),
     "ff1db3adf3a4a0b538dab17e70c5d4e456bbf0f0e19cf7adafc4845c3836464f"),
    (lambda: run_certification(RunConfig(
        "E7", checks=("hilbert", "regular_sequence", "zero_set"))).to_dict(),
     "5360f078f04a704e0b62f3d466317384ef255232af97d44de18560cce8a93db5"),
    (lambda: run_certification(RunConfig("E8")).to_dict(),
     "dfeec9932e1c9026a15dd6092b9529cb45930dee979733157c4c605261417af9"),
], ids=["default-suite", "E6-restriction", "E7-quadric", "E8-certify"])
def test_default_suite_report_is_pinned(report, digest):
    # the refactor gate: the timing-free report, byte for byte
    blob = json.dumps(strip_timing(report()), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# the benchmark's two certify workloads and a full E8 run
REPORT_RUNS = {
    "E6-restriction": RunConfig("E6", checks=("quadratic", "monk", "giambelli",
                                              "basis", "graded_dims")),
    "E7-quadric": RunConfig("E7", checks=("hilbert", "regular_sequence", "zero_set")),
    "E8-certify": RunConfig("E8"),
}


PRINTED_DIGESTS = {
    "E6-restriction": "28e3d0b4fa99894975a6c316dd0b6bc812364a4307d77a794801907c78374fb1",
    "E7-quadric": "b4d5165f317730d51f8ecb62325b672459c9178b7ad1d8d287b3c2207225ee14",
    "E8-certify": "73709652fe123bf871cfa1bc970bd6ebb8e8b2f5cddb0c5eeb69191ce951edb6",
}


@pytest.mark.parametrize("name", PRINTED_DIGESTS)
def test_printed_report_is_pinned(name):
    # the bytes `petcoh certify --format json` prints, layout and all, with
    # every timing value zeroed
    report = run_certification(REPORT_RUNS[name])
    report.timing = dict.fromkeys(report.timing, 0.0)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
        PRINTED_DIGESTS[name]


@pytest.mark.parametrize("config", [RunConfig(name) for name in DEFAULT_SUITE]
                         + [RunConfig("A2+A1"), *REPORT_RUNS.values()],
                         ids=[*DEFAULT_SUITE, "A2+A1", *REPORT_RUNS])
def test_to_json_matches_the_json_dumps_oracle(config):
    report = run_certification(config)
    assert report.to_json() == indented_json(report.to_dict())


def test_to_json_of_an_integrity_error_matches_the_oracle(monkeypatch):
    _matrix_route(monkeypatch)
    monkeypatch.setattr(roots, "is_positive_root_vector",
                        lambda root: root != (1, 1))
    report = run_certification(RunConfig("A2"))
    assert {"integrity_error": "r(i, w) = (1, 1) is not a positive root"} in \
        [r.witnesses for r in report.records]
    assert report.to_json() == indented_json(report.to_dict())


def test_to_json_of_a_height_integrity_error_matches_the_oracle(monkeypatch):
    _doctor_heights(monkeypatch, lambda h: (0, 2) if h == (-1, 2) else h)
    report = run_certification(RunConfig("A2"))
    assert {"integrity_error": "ht v_J(alpha_1) = 0 for J = 0b1; no root "
                               "has height 0"} in \
        [r.witnesses for r in report.records]
    assert report.to_json() == indented_json(report.to_dict())


def test_to_json_of_a_failing_record_matches_the_oracle(monkeypatch):
    def failing(model):
        # witnesses as a check builds them: tuples, int keys
        return CheckRecord("quadratic", model.type_name(), False, {"relations": 2},
                           {"failing_rows": [(1, (2, 3))], "by_node": {10: (), 2: "x"}})

    monkeypatch.setitem(cli._CHECK_FUNCTIONS, "quadratic", failing)
    report = run_certification(RunConfig("A2", checks=("quadratic", "hilbert")))
    assert not report.overall_pass
    assert report.to_json() == indented_json(report.to_dict())


def test_to_json_of_a_report_with_no_records_matches_the_oracle():
    report = run_certification(RunConfig("A2", checks=()))
    assert report.to_json() == indented_json(report.to_dict())


def test_writer_matches_the_oracle_on_a_suite():
    aggregate = run_suite(DEFAULT_SUITE)
    assert _dumps(aggregate) == indented_json(aggregate)


# JSON-like trees as reports hold them and beyond: str and int keys that
# collide once made strings (1 and "1") or sort apart as strings (2, 10),
# tuples, non-ASCII and control characters, large ints, special floats
_KEYS = st.sampled_from([1, "1", 2, "2", 10, "10", "", "é", "\x00"]) | st.text(max_size=3) \
    | st.integers(-20, 20)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
            | st.floats() | st.sampled_from([-0.0, 1e-7, nan, inf, -inf])
            | st.text(max_size=6)
            | st.sampled_from(["\u00e9\u2028\U0001f600", "\x00\x1f\t\n\"\\", ""]))
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=24)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_TREES)
@example({1: "a", "1": "b", 2: [], 10: {}, "x": ((), [[]], {"y": {}})})
@example([-0.0, 1e-7, nan, inf, -inf, 10**40, True, False, None, "\u00e9\x00"])
def test_writer_matches_the_json_dumps_oracle(tree):
    assert _dumps(tree) == indented_json(tree)


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), {"a": [frozenset()]},
                                   [1, (Fraction(1, 3),)]],
                         ids=["set", "Fraction", "nested-frozenset", "nested-Fraction"])
def test_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        indented_json(value)
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.mark.parametrize("argv", [["certify", "--type", "G2"],
                                  ["suite", "--types", "A1,B2"]],
                         ids=["certify", "suite"])
def test_printed_json_reads_back_to_the_same_text(argv, capsys):
    assert main([*argv, "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("}\n")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text[:-1]


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
    # the minors route reads J-check off J's generators, so the package
    # builds no J-check ideal; the oracles read it as J's t = 0 section
    assert "build_ideal_Jcheck" not in petcoh.__all__
    assert not hasattr(petcoh, "build_ideal_Jcheck")
    assert not hasattr(petcoh.commalg, "build_ideal_Jcheck")
    # a polynomial is plain term data; the Poly class lives in the oracles
    assert "Poly" not in petcoh.__all__
    assert not hasattr(petcoh, "Poly") and not hasattr(petcoh.commalg, "Poly")


def test_default_suite_contents():
    assert DEFAULT_SUITE == ("A1", "A2", "A3", "A4", "B2", "B3", "C3",
                             "D4", "F4", "G2")
