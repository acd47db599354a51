"""Correctness gate: every selected check ran, passed and reproduced the
mathematical witnesses stored in ``reference.json``.

The reference holds, per Lie type, the witnesses of the checks below as the
program produced them when the benchmark was defined.  They are compared
instead of the whole report, so that a later change may add fields (such as
work counters) to a report without tripping the gate.
"""

from __future__ import annotations

import json
import os

from workloads import CERTIFICATE_LEGS

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# check -> witness fields compared against the reference
WITNESS_FIELDS = {
    "hilbert": ("equivariant_series", "ordinary_series"),
    "graded_dims": ("computed",),
    "giambelli": ("coefficients",),
    "monk": ("cartan_cross_check",),
    "basis": ("diagonal",),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def observe(entries) -> list[dict]:
    """What the gate looks at, per type, in decoded report entries."""
    observed = []
    for entry in entries:
        checks = {}
        for record in entry.get("checks", ()):
            fields = WITNESS_FIELDS.get(record["check"], ())
            checks[record["check"]] = {
                "pass": record["pass"],
                "skipped": record["skipped"],
                "witness": {f: record["witnesses"].get(f) for f in fields},
            }
        observed.append({
            "lie_type": entry["lie_type"],
            "error": entry.get("error"),
            "overall_pass": entry.get("overall_pass"),
            "isomorphism_certified": entry.get("isomorphism_certified"),
            "checks": checks,
        })
    return observed


def judge(observed, checks, reference) -> tuple[int, list[str]]:
    """(items attempted, one line per failed item).

    An item is one selected check of one type, plus one certificate item per
    type: ``overall_pass`` is true and, when the workload selects every leg
    of the certificate, so is ``isomorphism_certified``.
    """
    need_certificate = all(leg in checks for leg in CERTIFICATE_LEGS)
    attempted = 0
    failures = []
    for obs in observed:
        lie_type = obs["lie_type"]
        expected = reference.get(lie_type, {})
        for name in checks:
            attempted += 1
            record = obs["checks"].get(name)
            if obs["error"] or record is None:
                failures.append(f"{lie_type}/{name}: did not run ({obs['error']})")
            elif record["skipped"]:
                failures.append(f"{lie_type}/{name}: skipped")
            elif record["pass"] is not True:
                failures.append(f"{lie_type}/{name}: failed")
            elif name in WITNESS_FIELDS and record["witness"] != expected.get(name):
                failures.append(f"{lie_type}/{name}: witnesses differ from the reference")
        attempted += 1
        if obs["overall_pass"] is not True:
            failures.append(f"{lie_type}: overall_pass is not true")
        elif need_certificate and obs["isomorphism_certified"] is not True:
            failures.append(f"{lie_type}: isomorphism_certified is not true")
    return attempted, failures
