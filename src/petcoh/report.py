"""Certification records and report assembly with deterministic JSON output."""

from __future__ import annotations

import json
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


class CheckRecord:
    """Outcome of one verification: inputs, witnesses, and a pass flag.

    Every record passed or failed.  Records compare by value and, being
    mutable, do not hash.
    """

    __slots__ = ("check", "lie_type", "passed", "parameters", "witnesses")

    def __init__(self, check: str, lie_type: str, passed: bool,
                 parameters: dict | None = None, witnesses: dict | None = None):
        self.check = check
        self.lie_type = lie_type
        self.passed = passed
        self.parameters = {} if parameters is None else parameters
        self.witnesses = {} if witnesses is None else witnesses

    def __eq__(self, other):
        return isinstance(other, CheckRecord) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def to_dict(self) -> dict:
        # every record passed or failed, so "skipped" is always false; the
        # key stays so that reports keep their bytes, and perfbench/gate.py
        # and perfbench/make_reference.py read it
        return {
            "check": self.check,
            "lie_type": self.lie_type,
            "parameters": jsonable(self.parameters),
            "witnesses": jsonable(self.witnesses),
            "pass": self.passed,
            "skipped": False,
        }


class CertificationReport:
    """One type's records, config and timing; compares by value, does not hash."""

    __slots__ = ("lie_type", "config", "records", "timing", "tool_version")

    def __init__(self, lie_type: str, config: dict, records: list[CheckRecord],
                 timing: dict, tool_version: str):
        self.lie_type = lie_type
        self.config = config
        self.records = records
        self.timing = timing
        self.tool_version = tool_version

    def __eq__(self, other):
        return isinstance(other, CertificationReport) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def isomorphism_certified(self) -> bool:
        """True only when all five proof legs ran and passed: the quadratic
        relations (the map from the quadric ring is well defined, checked
        on the generators of the very J the Hilbert leg reads), the
        Giambelli witnesses (it is onto the span of the classes p_{v_K}),
        the basis triangularity (the 2^n classes p_{v_K} are independent,
        so the target has the expected size), the Hilbert series equality
        (the source has that size too, read off J's Groebner basis and
        proven again from the Cartan minors, which make the quadrics and
        t a regular sequence), and the well-definedness of
        Billey's formula.  That last leg is needed because the other
        restriction legs read the classes off Billey localizations: they
        are the Peterson classes only if every localization is the same
        for every reduced word and vanishes off the Bruhat interval.  The
        Giambelli witnesses must moreover reach every one of the 2^n - 1
        nonempty node sets K of that basis (p_{v_()} is 1), each by
        Giambelli's identity for K itself."""
        legs = {"billey_welldef", "quadratic", "giambelli", "basis", "hilbert"}
        ran = {r.check: r.passed for r in self.records if r.check in legs}
        return set(ran) == legs and all(ran.values()) and \
            self._every_subset_reached()

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
