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
import json
import sys
import time
from contextlib import nullcontext
from math import comb, factorial
from operator import methodcaller

from . import __version__
from .billey import reduced_word_tables
from .commalg import HilbertSeries, build_ideal_J, zero_set_via_minors
from .errors import IntegrityError
from .peterson import PetersonModel
from .report import CertificationReport, CheckRecord, ratio
from .roots import cartan_matrix, parse_lie_type
from .weyl import CayleyTable, WeylGroup, word_to_str

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

# exhaustive well-definedness sweeps get shorter as the group grows
_WELLDEF_LENGTH_BY_RANK = {1: 6, 2: 6, 3: 5, 4: 4}

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
    """Localization is witness-word independent, vanishes exactly off the
    Bruhat interval, and is homogeneous; swept over a bounded length range.

    Every reduced word of every w of length <= max_length gets its own table
    {v: sigma_v(w)}, and the witness word's table is the baseline the others
    are compared with.  The sweep runs on element indices: one
    ``weyl.CayleyTable`` walks the swept ideal once and holds u s_b and the
    ascent roots by index, and nothing after it hashes an action matrix.
    The tables come from one walk over the trie of reduced words on that
    table (``billey.reduced_word_tables``), by element, which alone lists
    the words: a word's table is its parent prefix's table plus one letter
    step, so no table is built from scratch, yet each is computed along its
    own word.  The number of words of each w must be ``count_reduced_words``,
    which recurses on action matrices apart from the trie; otherwise the
    record is an integrity error.  Values are compared as {exponent tuple:
    int} dicts; a missing entry is sigma_v(w) = 0.  Every key of a table has
    length <= l(w), so a table equal to the baseline as a whole agrees at
    every target, and only a table that differs is compared target by
    target.  A value vanishes iff v is off the Bruhat interval [e, w], a set
    lookup: ``CayleyTable.bruhat_intervals`` builds [e, w] for every swept w
    by the lifting recursion [e, w] = [e, ws] u [e, ws] s.  The length
    bound is ``_WELLDEF_LENGTH_BY_RANK``, which with ``MAX_RANK`` bounds the
    sweep: 442 elements at most, for B12, C12 and D12.
    """
    group = model.group
    max_len = _WELLDEF_LENGTH_BY_RANK.get(model.rank, 3)
    cayley = CayleyTable(group, max_len)
    elements = cayley.elements
    tables = reduced_word_tables(group, cayley)
    intervals = cayley.bruhat_intervals()
    # elements run by length, so the targets of w, the v with l(v) <= l(w),
    # are the first ends[l(w)] of them
    ends = {u.length: i + 1 for i, u in enumerate(elements)}
    comparisons = 0
    failures = []
    for i, w in enumerate(elements):
        targets = range(ends[w.length])
        words = tables[i]
        count = group.count_reduced_words(w)
        if len(words) != count:
            raise IntegrityError(
                f"the trie lists {len(words)} reduced words of "
                f"{word_to_str(w.witness_word)}, but it has {count}")
        baseline = words[w.witness_word]
        below = intervals[i]
        for v in targets:
            value = baseline.get(v)
            if bool(value) != (v in below):
                failures.append({"kind": "vanishing",
                                 "v": word_to_str(elements[v].witness_word),
                                 "w": word_to_str(w.witness_word)})
            if value and {sum(e) for e in value} != {elements[v].length}:
                failures.append({"kind": "degree",
                                 "v": word_to_str(elements[v].witness_word),
                                 "w": word_to_str(w.witness_word)})
        comparisons += len(words) * len(targets)
        for word, table in words.items():
            if table == baseline:
                continue
            for v in targets:
                if table.get(v) != baseline.get(v):
                    failures.append({
                        "kind": "witness_dependence",
                        "v": word_to_str(elements[v].witness_word),
                        "w_word": word_to_str(word)})
    return CheckRecord(
        check="billey_welldef",
        lie_type=model.type_name(),
        passed=not failures,
        parameters={"max_length": max_len, "elements": len(elements)},
        witnesses={"comparisons": comparisons, "failures": failures[:20]},
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
    one identity, |K|! p_{v_K} = #words(v_K) b_K, computed on the rows
    (``giambelli_holds``); no record is built per identity.

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


def _minor_route(cartan) -> bool:
    """The Cartan-minors argument of the source paper: theta_1, ...,
    theta_n, t is a regular sequence in Q[x_1..x_n, t].

    Every generator of J is homogeneous of degree 2, and
    ``zero_set_via_minors`` shows that J-check = (theta-check_i =
    x_i (A x)_i) vanishes only at the origin, every principal minor of the
    Cartan matrix A being positive.  Since theta_i = theta-check_i -
    2 t x_i, (J, t) = (J-check, t), so the sequence cuts Q[x, t] down to a
    finite dimension: it is a homogeneous system of parameters, and in the
    Cohen-Macaulay ring Q[x, t] a homogeneous system of parameters is a
    regular sequence (Bruns and Herzog, Cohen-Macaulay Rings, Sec. 2.1).
    The quotient by a regular sequence of forms of degrees 4, ..., 4, 2
    has the series (1 - s^4)^n (1 - s^2) / (1 - s^2)^(n + 1) = (1 + s^2)^n,
    and dropping the last element leaves (1 - s^4)^n / (1 - s^2)^(n + 1) =
    (1 + s^2)^n / (1 - s^2): the series of Q[x]/J-check and of Q[x, t]/J.
    No Groebner basis is computed.  This is the one statement of the
    argument; the three checks that rest on it point here."""
    return zero_set_via_minors(cartan) and all(
        {sum(e) for e, _ in g} == {2} for g in build_ideal_J(cartan).generators)


def _check_hilbert(model: PetersonModel) -> CheckRecord:
    """The quotient Hilbert series are the closed forms (1 + s^2)^n /
    (1 - s^2) of Q[x, t]/J and (1 + s^2)^n of Q[x]/J-check, proven by the
    Cartan minors (``_minor_route``), which make theta_1, ..., theta_n, t
    a regular sequence of the degrees the record lists.  The series the
    record prints are those closed forms; it passes iff the route holds."""
    cartan = model.cartan
    n = cartan.rank
    holds = _minor_route(cartan)
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
    (``_minor_route``)."""
    cartan = model.cartan
    n = cartan.rank
    holds = _minor_route(cartan)
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
    record is that of ``_minor_route``, which also checks that J is
    homogeneous of degree 2."""
    cartan = model.cartan
    holds = _minor_route(cartan)
    return CheckRecord(
        check="zero_set",
        lie_type=model.type_name(),
        passed=holds,
        parameters={"rank": cartan.rank},
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
    that passed or failed: an integrity error fails its check.
    """
    types = parse_lie_type(config.lie_type)
    cartan = cartan_matrix(types)
    group = WeylGroup(cartan)
    model = PetersonModel(cartan, group)
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
        config={"lie_type": config.lie_type, "checks": config.checks},
        records=records,
        timing=timing,
        tool_version=__version__,
    )


def _run_one_suite_entry(type_name: str, template: RunConfig) -> dict:
    try:
        return run_certification(RunConfig(type_name, template.checks)).to_dict()
    except Exception as exc:  # isolate per-type blowups
        return {"lie_type": type_name, "error": str(exc)}


def run_suite(types, template: RunConfig | None = None) -> dict:
    """Per-type certifications, in input order, plus an aggregate pass flag.

    A type that fails to run at all is isolated as an error entry; it does
    not abort the rest of the suite.
    """
    template = template or RunConfig(lie_type="A1")
    start = time.perf_counter()
    entries = [_run_one_suite_entry(name, template) for name in types]
    overall = all(
        entry.get("overall_pass", False) and "error" not in entry
        for entry in entries
    )
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
            return exit_status([report.to_dict()])

        aggregate = run_suite(types, config)
        print(json.dumps(aggregate, indent=2, sort_keys=True)
              if args.output_format == "json" else render_suite_text(aggregate),
              file=fh)
        return exit_status(aggregate["types"])


if __name__ == "__main__":
    sys.exit(main())
