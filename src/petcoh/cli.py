"""Certification pipeline and command-line interface.

Runs the selected verifications for one Lie type (or a suite of types) and
emits a deterministic report: same inputs and tool version give the same
JSON up to the timing fields.  Exit status, for ``certify`` and ``suite``
alike: 0 when every selected check ran and passed, 1 when a check failed
(or a suite type could not run), 3 when no check was selected or a suite
had no types, so that nothing was proved, and 2 for invalid input.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from math import comb, factorial
from operator import methodcaller

from . import __version__
from .commalg import HilbertSeries
from .errors import IntegrityError
from .peterson import PetersonModel
from .report import CertificationReport, CheckRecord, _dumps, ratio
from .roots import cartan_matrix, parse_lie_type

CHECK_ORDER = (
    "billey_welldef",
    "quadratic",
    "monk",
    "giambelli",
    "basis",
    "graded_dims",
    "hilbert",
    "regular_sequence",
    "zero_set",
)

DEFAULT_SUITE = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2")

# the largest total rank accepted, checked before any model is built: the
# model holds 4^rank class values, and each further rank multiplies the
# wall time and peak RSS of a full run by about 3.  Single wall times drift
# by about a third from one session to the next, so none is quoted here
MAX_RANK = 12


def _parse_bounded_type(text: str):
    """``parse_lie_type``, rejecting a total rank above ``MAX_RANK``."""
    types = parse_lie_type(text)
    rank = sum(t.rank for t in types)
    if rank > MAX_RANK:
        raise ValueError(f"type {text.strip()} has total rank {rank}; "
                         f"at most {MAX_RANK} is supported")
    return types


class RunConfig:
    """A Lie type and an iterable of check names, kept in ``CHECK_ORDER``, each once."""

    __slots__ = ("lie_type", "checks")

    def __init__(self, lie_type: str, checks: tuple[str, ...] = CHECK_ORDER):
        _parse_bounded_type(lie_type)
        if isinstance(checks, str):
            raise ValueError(f"checks takes a sequence of check names, not {checks!r}")
        # read once, so that a one-shot iterable is validated and kept whole
        checks = tuple(checks)
        unknown = set(checks) - set(CHECK_ORDER)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        object.__setattr__(self, "lie_type", lie_type)
        object.__setattr__(self, "checks", tuple(
            name for name in CHECK_ORDER if name in checks))

    def __setattr__(self, name, value):
        raise AttributeError("RunConfig is immutable")

    def __eq__(self, other):
        return (isinstance(other, RunConfig)
                and (self.lie_type, self.checks) == (other.lie_type, other.checks))

    def __hash__(self):
        return hash((self.lie_type, self.checks))


def _one_plus_s2_power(rank: int) -> list[int]:
    """Coefficients of (1 + s^2)^rank."""
    return [0 if k % 2 else comb(rank, k // 2) for k in range(2 * rank + 1)]


def expected_equivariant_series(rank: int) -> HilbertSeries:
    """(1 + s^2)^rank / (1 - s^2)."""
    return HilbertSeries.over_one_minus_s2(_one_plus_s2_power(rank), 1)


def expected_ordinary_series(rank: int) -> HilbertSeries:
    """(1 + s^2)^rank."""
    return HilbertSeries.over_one_minus_s2(_one_plus_s2_power(rank), 0)


# ---------------------------------------------------------------------------
# individual checks

def _check_billey_welldef(model: PetersonModel) -> CheckRecord:
    """The rows are the Peterson classes by Billey's theorem, a cited
    premise: sigma_v(w) does not depend on the reduced word of w (Billey,
    Duke Math. J. 96, 1999).  The rows follow one reduced word of each
    fixed point w_L.  This check recomputes every column from the rows'
    own column of L - min L along a second word and lists the first 20 L
    it does not reproduce (``PetersonModel.second_word_failures``), so a
    row entry or recursion step the build got wrong fails here.  The
    theorem is tested word by word in ``tests/oracles.py``."""
    failing = model.second_word_failures()
    return CheckRecord(
        check="billey_welldef",
        lie_type=model.type_name(),
        passed=not failing,
        parameters={"fixed_points": 1 << model.rank},
        witnesses={"failures": [list(L) for L in failing[:20]]},
    )


def _check_monk(model: PetersonModel) -> CheckRecord:
    """Full Monk verification over every (i, K), plus the Cartan-integer
    cross-check on covers of singletons computed via the quotient formula.
    The identities are computed on the rows, those of one K together
    (``PetersonModel.monk_failures``); no record is built per identity, and
    this is the check's one record."""
    cartan = model.cartan
    nodes = cartan.nodes()
    failures = [{"i": i, "K": list(K)} for i, K in model.monk_failures()]
    coefficients = {(i, j): model.monk_coefficient(i, (i,), (i, j))
                    for i in nodes for j in nodes if i != j}
    cross = [{"i": i, "j": j, "coefficient": ratio(*c), "expected": -cartan.a(i, j)}
             for (i, j), c in coefficients.items()]
    cross_ok = all(num == -cartan.a(i, j) * den
                   for (i, j), (num, den) in coefficients.items())
    return CheckRecord(
        check="monk",
        lie_type=model.type_name(),
        passed=not failures and cross_ok,
        parameters={"identities_checked": len(nodes) * len(model.subsets)},
        witnesses={
            "failures": failures,
            "cartan_cross_check": cross,
            "cartan_cross_check_ok": cross_ok,
        },
    )


def _check_giambelli(model: PetersonModel) -> CheckRecord:
    """Reach every nonempty node set K in the image of the quadric ring by
    one identity, |K|! p_{v_K} = #words(v_K) b_K, b_K = prod_{i in K}
    p_{s_i}, proven on the rows by induction on |K|, one step
    K - max K -> K per K (``giambelli_holds``); no record is built per
    identity.

    For a connected K it is Giambelli's formula.  For a disconnected K it
    is the product of Giambelli's formulas over the connected components C:
    the v_C commute, so p_{v_K} = prod_C p_{v_C}, b_K = prod_C b_C, and a
    reduced word of v_K shuffles reduced words of the v_C, so #words(v_K) =
    |K|! prod_C #words(v_C) / |C|!.  The witnesses say how each K was
    reached: a connected K with its coefficient, a disconnected one with
    its components.  The empty K needs no formula, as p_{v_()} = 1, but its
    row is checked to be 1."""
    cartan = model.cartan
    coefficients = []
    products = []
    failures = [] if model.subset_class(()) == model.one() else \
        [{"kind": "unit", "K": []}]
    for K in model.subsets[1:]:
        components = cartan.connected_components(K)
        n_words, passed = model.giambelli_holds(K)
        if len(components) == 1:
            coefficients.append({"K": list(K),
                                 "coefficient": ratio(factorial(len(K)), n_words),
                                 "reduced_words": n_words})
            kind = "giambelli"
        else:
            products.append({"K": list(K),
                             "components": [list(C) for C in components]})
            kind = "disconnected_product"
        if not passed:
            failures.append({"kind": kind, "K": list(K)})
    return CheckRecord(
        check="giambelli",
        lie_type=model.type_name(),
        passed=not failures,
        parameters={"connected_subsets": len(coefficients),
                    "disconnected_subsets": len(products)},
        witnesses={"coefficients": coefficients, "products": products,
                   "failures": failures},
    )


def _check_hilbert(model: PetersonModel) -> CheckRecord:
    """The quotient Hilbert series are the closed forms (1 + s^2)^n /
    (1 - s^2) of Q[x, t]/J and (1 + s^2)^n of Q[x]/J-check, proven by the
    Cartan minors (``PetersonModel.minor_route``, computed once per model
    by the first check that reads it), which make theta_1, ..., theta_n, t
    a regular sequence of the degrees the record lists.  The series the
    record prints are those closed forms; it passes iff the route holds."""
    n = model.rank
    holds = model.minor_route
    return CheckRecord(
        check="hilbert",
        lie_type=model.type_name(),
        passed=holds,
        parameters={"rank": n},
        witnesses={
            "equivariant_series": expected_equivariant_series(n).to_json(),
            "ordinary_series": expected_ordinary_series(n).to_json(),
            "degrees": [4] * n + [2],
            "minor_route": holds,
        },
    )


def _check_regular_sequence(model: PetersonModel) -> CheckRecord:
    """theta_1, ..., theta_n and then t form a regular sequence in
    Q[x_1..x_n, t], of the degrees the record lists, by the Cartan minors
    (``PetersonModel.minor_route``, read from the model's memo)."""
    n = model.rank
    holds = model.minor_route
    return CheckRecord(
        check="regular_sequence",
        lie_type=model.type_name(),
        passed=holds,
        parameters={"sequence_length": n + 1},
        witnesses={"degrees": [4] * n + [2], "minor_route": holds},
    )


def _check_zero_set(model: PetersonModel) -> CheckRecord:
    """J-check vanishes only at the origin: its own generators are
    theta-check_i = x_i (A x)_i, and every principal minor of the Cartan
    matrix A is positive, by Sylvester's criterion on the symmetric D A
    for a positive diagonal symmetrizer D (``zero_set_via_minors``).  The
    record is that of the minors route (``PetersonModel.minor_route``, read
    from the model's memo), which also checks that J is homogeneous of
    degree 2."""
    holds = model.minor_route
    return CheckRecord(
        check="zero_set",
        lie_type=model.type_name(),
        passed=holds,
        parameters={"rank": model.rank},
        witnesses={"minor_route": holds},
    )


# each check is a function of the model alone; a model method is looked up
# when its check runs, so that a wrapper set on the class is the one called
_CHECK_FUNCTIONS = {
    "billey_welldef": _check_billey_welldef,
    "quadratic": methodcaller("verify_quadratic_relations"),
    "monk": _check_monk,
    "giambelli": _check_giambelli,
    "basis": methodcaller("verify_basis_triangular"),
    "graded_dims": methodcaller("verify_graded_dimensions"),
    "hilbert": _check_hilbert,
    "regular_sequence": _check_regular_sequence,
    "zero_set": _check_zero_set,
}


def run_certification(config: RunConfig) -> CertificationReport:
    """Execute the selected checks in ``CHECK_ORDER``.

    Failures never short-circuit the run, and every check gives a record
    that passed or failed: an integrity error fails its check.  The model
    builds each table when a check first reads it, so the first check that
    reads the rows (``billey_welldef`` in a full run) carries their build in
    ``timing``.  The rows walk on root heights, and no check builds a Weyl
    group.  The config's checks are stored as a list, as JSON has them, so
    that the report's own fields equal its ``to_dict``.
    """
    model = PetersonModel(cartan_matrix(parse_lie_type(config.lie_type)))
    records = []
    timing = {}
    start = time.perf_counter()
    for name in config.checks:
        t0 = time.perf_counter()
        try:
            record = _CHECK_FUNCTIONS[name](model)
        except IntegrityError as exc:
            record = CheckRecord(
                check=name,
                lie_type=model.type_name(),
                passed=False,
                witnesses={"integrity_error": str(exc)},
            )
        timing[name] = time.perf_counter() - t0
        records.append(record)
    timing["total"] = time.perf_counter() - start
    return CertificationReport(
        lie_type=model.type_name(),
        config={"lie_type": config.lie_type, "checks": list(config.checks)},
        records=records,
        timing=timing,
        tool_version=__version__,
    )


def _run_one_suite_entry(type_name: str, template: RunConfig) -> dict:
    try:
        return run_certification(RunConfig(type_name, template.checks))._fields()
    except Exception as exc:  # isolate per-type blowups
        return {"lie_type": type_name, "error": str(exc)}


def run_suite(types, template: RunConfig | None = None) -> dict:
    """Per-type certifications, in input order, plus an aggregate pass flag.

    Each entry is its report's own fields (``CertificationReport._fields``),
    with no ``jsonable`` copy: they hold only string keys and lists, so an
    entry equals the report's ``to_dict``.  A type that fails to run at all
    is isolated as an error entry; it does not abort the rest of the suite.
    """
    template = template or RunConfig(lie_type="A1")
    start = time.perf_counter()
    entries = [_run_one_suite_entry(name, template) for name in types]
    # an error entry has no overall_pass; a suite of no types proves nothing
    overall = bool(entries) and all(entry.get("overall_pass") for entry in entries)
    return {
        "schema_version": 1,
        "tool_version": __version__,
        "types": entries,
        "overall_pass": overall,
        "timing": {"total": time.perf_counter() - start},
    }


def exit_status(entries) -> int:
    """Exit status for the report dicts of the types run: 1 if a check
    failed or a type could not run, else 3 if no check ran, else 0."""
    checks = [c for entry in entries for c in entry.get("checks", ())]
    if any("error" in entry for entry in entries) or \
            not all(c["pass"] for c in checks):
        return 1
    if not checks:
        return 3
    return 0


def render_suite_text(aggregate: dict) -> str:
    lines = []
    for entry in aggregate["types"]:
        if "error" in entry:
            lines.append(f"== certification: {entry['lie_type']} ==")
            lines.append(f"[ERROR] {entry['error']}")
            continue
        lines.append(f"== certification: {entry['lie_type']} ==")
        for check in entry["checks"]:
            lines.append(f"[{'PASS' if check['pass'] else 'FAIL'}] "
                         f"{check['check']}")
        lines.append(f"overall: {'PASS' if entry['overall_pass'] else 'FAIL'}")
    lines.append(f"suite overall: "
                 f"{'PASS' if aggregate['overall_pass'] else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing

def _add_common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--checks", default="all",
                        help="comma-separated subset of: " + ",".join(CHECK_ORDER))
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "json"))
    parser.add_argument("--out", default=None, help="write the report to a file")


def _parse_checks(text: str) -> tuple[str, ...]:
    """Check names as listed, empty items dropped as in ``--types``;
    RunConfig rejects unknown ones."""
    text = text.strip()
    if text == "all":
        return CHECK_ORDER
    return tuple(p.strip() for p in text.split(",") if p.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petcoh",
        description="Certify the two presentations of the equivariant "
                    "cohomology of a Peterson variety against each other.")
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="run the checks for one Lie type")
    certify.add_argument("--type", required=True, dest="lie_type",
                         help="Lie type, e.g. G2 or A2+A1")
    _add_common_options(certify)

    suite = sub.add_parser("suite", help="run the checks for several types")
    suite.add_argument("--types", default=",".join(DEFAULT_SUITE),
                       help="comma-separated Lie types "
                            f"(default: {','.join(DEFAULT_SUITE)})")
    _add_common_options(suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # bad input ends in a one-line usage error (exit status 2), not a traceback
    try:
        config = RunConfig(
            lie_type=args.lie_type if args.command == "certify" else "A1",
            checks=_parse_checks(args.checks),
        )
        # every suite type is parsed before any check runs
        types = [] if args.command == "certify" else \
            [p.strip() for p in args.types.split(",") if p.strip()]
        for name in types:
            _parse_bounded_type(name)
    except ValueError as exc:
        parser.error(str(exc))
    # an unwritable --out fails here, before any check runs
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out \
            else nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot write --out: {exc}")

    with out as fh:
        if args.command == "certify":
            report = run_certification(config)
            print(report.to_json() if args.output_format == "json"
                  else report.to_text(), file=fh)
            return exit_status([report._fields()])

        aggregate = run_suite(types, config)
        print(_dumps(aggregate)
              if args.output_format == "json" else render_suite_text(aggregate),
              file=fh)
        return exit_status(aggregate["types"])


if __name__ == "__main__":
    sys.exit(main())
