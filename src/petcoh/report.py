"""Certification records and report assembly with deterministic JSON output."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from math import gcd, inf

SCHEMA_VERSION = 1
_CONTAINERS = (dict, list, tuple)


def ratio(num: int, den: int) -> str:
    """num/den as the string "num/den", reduced, with den > 0: 0 is "0/1"."""
    if not den:
        raise ZeroDivisionError(f"ratio {num}/0")
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return f"{num // g}/{den // g}"


def jsonable(value):
    """Recursively convert report payloads to JSON-native deterministic data."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) if isinstance(v, _CONTAINERS) else v
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) if isinstance(v, _CONTAINERS) else v for v in value]
    return value


# json.dumps's text of each common scalar type by exact type, with no Python frame
_TEXT = {str: _quote, int: int.__repr__, bool: ("false", "true").__getitem__,
         type(None): {None: "null"}.__getitem__}


def _scalar(value) -> str | None:
    """The text of a float or a subclass of a _TEXT type; None for a container."""
    if isinstance(value, _CONTAINERS):
        return None
    if isinstance(value, float):
        return float.__repr__(value) if -inf < value < inf else \
            "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    for kind, text in _TEXT.items():
        if isinstance(value, kind):
            return text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(value, indent: str, out: list) -> None:
    """Append the text of value to out, a container's items one a line two
    spaces in from indent (a newline and spaces), all-scalar ones joined."""
    if not isinstance(value, _CONTAINERS):
        out.append(_scalar(value))
        return
    keys, brackets = None, "[]"
    if isinstance(value, dict):
        # str() keys, the last value of a repeated one kept, as in jsonable
        items = dict(zip(map(str, value), value.values()))
        keys, brackets = sorted(items), "{}"
        value = list(map(items.__getitem__, keys))
    inner = indent + "  "
    texts = [_TEXT.get(type(item), _scalar)(item) for item in value]
    if None not in texts:  # empty, or scalars only
        lines = texts if keys is None else map("{}: {}".format, map(_quote, keys), texts)
        out.append(brackets[0] + inner + ("," + inner).join(lines) + indent + brackets[1]
                   if texts else brackets)
        return
    for i, text in enumerate(texts):
        head = "" if keys is None else _quote(keys[i]) + ": "
        out.append(("," if i else brackets[0]) + inner + head + (text or ""))
        if text is None:
            _write(value[i], inner, out)
    out.append(indent + brackets[1])


def _dumps(value) -> str:
    """``json.dumps(jsonable(value), indent=2, sort_keys=True)``, one pass, no copy."""
    out = []
    _write(value, "\n", out)
    return "".join(out)


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

    def _fields(self) -> dict:
        # every record passed or failed, so "skipped" is always false; the
        # key stays so that reports keep their bytes, and perfbench/gate.py
        # and perfbench/make_reference.py read it
        return {"check": self.check, "lie_type": self.lie_type,
                "parameters": self.parameters, "witnesses": self.witnesses,
                "pass": self.passed, "skipped": False}

    def to_dict(self) -> dict:
        return jsonable(self._fields())


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
        """At least one check ran, and every one passed."""
        return bool(self.records) and all(r.passed for r in self.records)

    def isomorphism_certified(self) -> bool:
        """True only when all five proof legs ran and passed: the quadratic
        relations (the map from the quadric ring is well defined, checked
        on the generators of the very J the Hilbert leg reads), the
        Giambelli witnesses (it is onto the span of the classes p_{v_K}),
        the basis triangularity (the 2^n classes p_{v_K} are independent,
        so the target has the expected size), the Hilbert series equality
        (the source has that size too: the Cartan minors make the quadrics
        and t a regular sequence, which gives its series in closed form;
        no Groebner basis is computed), and ``billey_welldef``: the rows
        the other legs read are the Peterson classes, as they equal the
        closed form that Drellich's Giambelli formula (2015), sigma_{s_i}(w)
        = varpi_i - w varpi_i (Kostant and Kumar 1986; Billey 1999) and the
        heaps of Coxeter elements give (``cli._check_billey_welldef``).  The
        Giambelli witnesses must moreover reach every one of the 2^n - 1
        nonempty node sets K of that basis (p_{v_()} is 1), each by its own.
        Giambelli's identities, and Monk's, are read at the supersets of K
        alone, off which both sides vanish by the support condition that
        ``basis`` and ``billey_welldef`` both check, so it leaves no gap."""
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

    def _fields(self) -> dict:
        """The fields and each record's, as built: ``to_dict`` copies them
        with ``jsonable``, ``to_json`` writes them as they are."""
        return {"schema_version": SCHEMA_VERSION, "tool_version": self.tool_version,
                "lie_type": self.lie_type, "config": self.config,
                "checks": [r._fields() for r in self.records], "timing": self.timing,
                "overall_pass": self.overall_pass,
                "isomorphism_certified": self.isomorphism_certified()}

    def to_dict(self) -> dict:
        return jsonable(self._fields())

    def to_json(self) -> str:
        return _dumps(self._fields())

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
