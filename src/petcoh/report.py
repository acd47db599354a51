"""Certification records and report assembly with deterministic JSON output."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd

SCHEMA_VERSION = 1


def ratio(num: int, den: int) -> str:
    """num/den as the string "num/den", reduced, with den > 0: 0 is "0/1"."""
    if not den:
        raise ZeroDivisionError(f"ratio {num}/0")
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return f"{num // g}/{den // g}"


def jsonable(value):
    """Recursively convert report payloads to JSON-native deterministic data."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass
class CheckRecord:
    """Outcome of one verification: inputs, witnesses, and a pass flag.

    ``passed`` is None for checks that were skipped (resource caps); those
    carry the reason in ``witnesses`` and are excluded from conjunctions.
    """

    check: str
    lie_type: str
    passed: bool | None
    parameters: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "lie_type": self.lie_type,
            "parameters": jsonable(self.parameters),
            "witnesses": jsonable(self.witnesses),
            "pass": self.passed,
            "skipped": self.skipped,
        }


@dataclass
class CertificationReport:
    lie_type: str
    config: dict
    records: list[CheckRecord]
    timing: dict
    tool_version: str

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records if not r.skipped)

    def isomorphism_certified(self) -> bool:
        """True only when all five proof legs ran and passed: the quadratic
        relations (the map from the quadric ring is well defined, checked
        on the generators of the very J the Hilbert leg reads), the
        Giambelli witnesses (it is onto the span of the classes p_{v_K}),
        the basis triangularity (the 2^n classes p_{v_K} are independent,
        so the target has the expected size), the Hilbert series equality
        (the source has that size too), and the well-definedness of
        Billey's formula.  That last leg is needed because the other
        restriction legs read the classes off Billey localizations: they
        are the Peterson classes only if every localization is the same
        for every reduced word and vanishes off the Bruhat interval.  The
        Giambelli witnesses must moreover reach every one of the 2^n - 1
        nonempty node sets K of that basis (p_{v_()} is 1)."""
        legs = {"billey_welldef": False, "quadratic": False,
                "giambelli": False, "basis": False, "hilbert": False}
        for r in self.records:
            if r.check in legs and not r.skipped and r.passed:
                legs[r.check] = True
            elif r.check in legs and (r.skipped or not r.passed):
                return False
        return all(legs.values()) and self._every_subset_reached()

    def _every_subset_reached(self) -> bool:
        by_check = {r.check: r for r in self.records}
        witnesses = by_check["giambelli"].witnesses
        reached = {tuple(item["K"]) for key in ("coefficients", "products")
                   for item in witnesses.get(key, ())}
        n = by_check["basis"].parameters["size"].bit_length() - 1
        return reached == {tuple(i + 1 for i in range(n) if mask >> i & 1)
                           for mask in range(1, 1 << n)}

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "lie_type": self.lie_type,
            "config": jsonable(self.config),
            "checks": [r.to_dict() for r in self.records],
            "timing": jsonable(self.timing),
            "overall_pass": self.overall_pass,
            "isomorphism_certified": self.isomorphism_certified(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"== certification: {self.lie_type} =="]
        for r in self.records:
            if r.skipped:
                status = "SKIP"
            else:
                status = "PASS" if r.passed else "FAIL"
            params = ", ".join(f"{k}={v}" for k, v in jsonable(r.parameters).items())
            seconds = self.timing.get(r.check)
            stamp = f" [{seconds:.3f}s]" if isinstance(seconds, float) else ""
            lines.append(f"[{status}] {r.check}" + (f" ({params})" if params else "") + stamp)
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}"
                     f" | isomorphism certified: {self.isomorphism_certified()}")
        return "\n".join(lines)


def strip_timing(payload):
    """Deep copy of a report payload with every timing field removed."""
    if isinstance(payload, dict):
        return {k: strip_timing(v) for k, v in payload.items() if k != "timing"}
    if isinstance(payload, list):
        return [strip_timing(v) for v in payload]
    return payload
