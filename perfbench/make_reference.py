"""Write reference.json: the witnesses the correctness gate compares against.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are trusted (the reference in
the repository was taken when the benchmark was defined).  It runs every
workload once, refuses to write if any check fails or is skipped, and
stores, per Lie type and check, the witness fields of gate.WITNESS_FIELDS.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gate  # noqa: E402
from workloads import WORKLOADS, make_spec  # noqa: E402


def main() -> int:
    os.environ.pop("PETCOH_REDUCED_WORD_CAP", None)
    from petcoh.cli import RunConfig, run_certification

    reference = {}
    for name in WORKLOADS:
        spec = make_spec(name, 0)
        for lie_type in spec["types"]:
            report = run_certification(RunConfig(lie_type, checks=tuple(spec["checks"])))
            (observed,) = gate.observe([report.to_dict()])
            for check, record in observed["checks"].items():
                if record["skipped"] or record["pass"] is not True:
                    raise SystemExit(f"{lie_type}/{check} did not pass; not writing")
                if check in gate.WITNESS_FIELDS:
                    reference.setdefault(lie_type, {})[check] = record["witness"]
            print(f"{name}: {lie_type} done", file=sys.stderr)
    # one line per type keeps the file short and its diffs readable
    lines = [f"{json.dumps(t)}: {json.dumps(reference[t], sort_keys=True)}"
             for t in sorted(reference)]
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
