"""Pipeline orchestration: configs, reports, suites, CLI surface."""

import hashlib
import json

import pytest

from petcoh import cli
from petcoh.cli import (
    CHECK_ORDER,
    DEFAULT_SUITE,
    RunConfig,
    WORD_CAP_ENV,
    expected_equivariant_series,
    main,
    run_certification,
    run_suite,
)
from petcoh.report import CheckRecord, strip_timing


def test_run_config_validation():
    RunConfig(lie_type="A1")
    with pytest.raises(ValueError):
        RunConfig(lie_type="A1", cutoff_degree=5)
    with pytest.raises(ValueError):
        RunConfig(lie_type="A1", cutoff_degree=-2)
    with pytest.raises(ValueError):
        RunConfig(lie_type="A1", checks=("nope",))
    with pytest.raises(ValueError):
        RunConfig(lie_type="A1", output_format="yaml")


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
    assert coeffs == {(1, 2): 1, (2, 1): 3}


def test_empty_check_set_is_trivially_passing():
    report = run_certification(RunConfig(lie_type="A2", checks=()))
    assert report.records == []
    assert report.overall_pass
    assert not report.isomorphism_certified()  # no legs ran


CERTIFICATE_LEGS = ("quadratic", "giambelli", "basis", "hilbert")


def test_certificate_needs_the_basis_leg():
    partial = run_certification(RunConfig(
        lie_type="A2", checks=("quadratic", "giambelli", "hilbert")))
    assert partial.overall_pass
    assert not partial.isomorphism_certified()
    full = run_certification(RunConfig(
        lie_type="A2", checks=("quadratic", "giambelli", "hilbert", "basis")))
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
    assert giambelli["parameters"]["disconnected_pairs"] >= 1


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


def test_word_cap_skip_is_explicit(monkeypatch):
    # a cap of 2 blocks the well-definedness sweep of A2 (w0 has length 3)
    # but leaves the algebraic checks runnable
    config = RunConfig(lie_type="A2", reduced_word_cap=2)
    report = run_certification(config)
    by_name = {r.check: r for r in report.records}
    assert by_name["billey_welldef"].skipped
    assert "skip_reason" in by_name["billey_welldef"].witnesses
    assert by_name["quadratic"].passed
    assert by_name["hilbert"].passed
    assert report.overall_pass  # skips are reported, not failed
    assert report.has_skips


def test_word_cap_zero_leaves_restriction_checks_runnable():
    # localization does not enumerate reduced words, so a cap of 0 stops
    # only the well-definedness sweep (reduced words of w, bruhat_leq)
    report = run_certification(RunConfig(lie_type="A2", reduced_word_cap=0))
    by_name = {r.check: r for r in report.records}
    assert by_name["billey_welldef"].skipped
    for name in ("quadratic", "monk", "giambelli", "basis", "graded_dims"):
        assert not by_name[name].skipped
        assert by_name[name].passed


def test_env_var_word_cap(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv(WORD_CAP_ENV, "2")
    out = tmp_path / "report.json"
    code = main(["certify", "--type", "A2", "--format", "json",
                 "--out", str(out)])
    assert code == 3  # the skipped sweep proved nothing
    payload = json.loads(out.read_text())
    assert payload["overall_pass"] is True
    assert payload["config"]["reduced_word_cap"] == 2
    welldef = next(c for c in payload["checks"]
                   if c["check"] == "billey_welldef")
    assert welldef["skipped"] is True


@pytest.mark.parametrize("argv", [
    ["certify", "--type", "A2", "--checks", ""],
    ["certify", "--type", "A2", "--checks", "billey_welldef", "--word-cap", "0"],
    ["suite", "--types", "A1,A2", "--checks", ""],
    ["suite", "--types", "A1,A2", "--checks", "billey_welldef,quadratic",
     "--word-cap", "0"],
    ["suite", "--types", "", "--checks", "quadratic"],
], ids=["certify-no-checks", "certify-all-skipped", "suite-no-checks",
        "suite-one-skipped", "suite-no-types"])
def test_run_that_proved_nothing_exits_3(argv, capsys):
    assert main(argv) == 3
    # the report itself is unchanged: nothing failed
    assert "FAIL" not in capsys.readouterr().out


def test_failed_check_exits_1(monkeypatch, capsys):
    def failing(model, config):
        return CheckRecord(check="quadratic", lie_type=model.type_name(),
                           passed=False)

    monkeypatch.setitem(cli._CHECK_FUNCTIONS, "quadratic", failing)
    assert main(["certify", "--type", "A1", "--checks", "quadratic"]) == 1
    # a failure outranks a skip
    assert main(["certify", "--type", "A2", "--checks",
                 "billey_welldef,quadratic", "--word-cap", "0"]) == 1
    assert main(["suite", "--types", "A1,G2", "--checks", "quadratic"]) == 1
    assert main(["suite", "--types", "A1,Z9", "--checks", "hilbert"]) == 1


def test_default_suite_report_is_pinned():
    # the refactor gate: the timing-free suite report, byte for byte
    blob = json.dumps(strip_timing(run_suite(DEFAULT_SUITE)), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "49ca0af5f3e5016639d2d48c0b872ff54e6c27e107dcdeb4a96cb45de807c18e"


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


@pytest.mark.parametrize("argv,env_cap", [
    (["certify", "--type", "X9"], None),
    (["certify", "--type", "E9"], None),
    (["certify", "--type", "A1", "--cutoff-degree", "3"], None),
    (["certify", "--type", "A1"], "abc"),
    (["certify", "--type", "A1", "--word-cap", "-1"], None),
    (["certify", "--type", "A1"], "-1"),
    (["suite", "--types", "A1", "--word-cap", "-1"], None),
], ids=["bad-type", "rank-out-of-range", "odd-cutoff", "env-cap-not-int",
        "negative-word-cap", "negative-env-cap", "suite-negative-word-cap"])
def test_bad_input_is_a_one_line_usage_error(argv, env_cap, monkeypatch, capsys):
    if env_cap is None:
        monkeypatch.delenv(WORD_CAP_ENV, raising=False)
    else:
        monkeypatch.setenv(WORD_CAP_ENV, env_cap)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--checks", "quadratic"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("petcoh: error: ")
    assert "Traceback" not in captured.err


def test_default_suite_contents():
    assert DEFAULT_SUITE == ("A1", "A2", "A3", "A4", "B2", "B3", "C3",
                             "D4", "F4", "G2")
