"""Certifier benchmark: end-to-end and per-layer metrics for petcoh.

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds ``src/petcoh``.  Every timed
repetition runs in a fresh interpreter, because a command-line user pays cold
caches on every run.  One process at a time, no worker threads.

``--trace 0`` prints the end-to-end metrics: medians over the repetitions
that fit in ``--seconds`` (at least one), and over several set-up runs, in
reference seconds, which factor out the shared host's changes of speed (see
speed.py).
``--trace 1`` alternates an untraced and a traced repetition and prints the
per-layer metrics.  Every repetition passes the correctness gate (see
gate.py); the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import gate
from tracer import PER_LAYER
from workloads import QUADRIC_CHECKS, RESTRICTION_CHECKS, WORKLOADS, make_spec

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

END_TO_END = (
    ("certify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_frac", "ratio"),
)

# set-up runs before each repetition and after the last one
SETUP_GROUP = 4
# every run must end within 180 s; no child is started or kept past this
RUN_DEADLINE_S = 170.0
# a stray value such as -1 silently skips six checks and shrinks the work
WORD_CAP_ENV = "PETCOH_REDUCED_WORD_CAP"


class ChildFailed(RuntimeError):
    pass


class Bench:
    def __init__(self, root: str, spec: dict, deadline: float):
        self.spec = dict(spec, src=os.path.join(root, "src"))
        self.deadline = deadline
        # the untimed warm-up child writes bytecode that later children
        # load, as an installed package would
        dropped = (WORD_CAP_ENV, "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = self.spec["src"]

    def child(self, mode: str, traced: bool = False) -> dict:
        cmd = [sys.executable, CHILD, mode, json.dumps(self.spec)]
        if traced:
            cmd.append("trace")
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} repetition exceeded {timeout:.0f} s") from None
        if proc.returncode:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise ChildFailed(f"{mode} repetition exited {proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repeat(self, seconds: float, step) -> None:
        """Call ``step`` until ``seconds`` have passed, at least once, and
        while a further call fits the deadline."""
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            step()
            now = time.monotonic()
            if now - start >= seconds or now + (now - t0) > self.deadline:
                return


def provenance(root: str) -> dict:
    cpu, load = "unknown", None
    try:
        load = os.getloadavg()
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": load,
        "commit": _commit(root),
    }


def _commit(root: str) -> str:
    """HEAD of the checkout, read from its own .git only."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _median(values):
    return statistics.median(values) if values else 0.0


def _judge(reps, checks, reference):
    """Gate every repetition; one failure line per failed item."""
    attempted, failures = 0, []
    first_digest = reps[0]["digest"] if reps else None
    for i, rep in enumerate(reps):
        n, lines = gate.judge(rep["observed"], checks, reference)
        attempted += n + (i > 0)
        failures += lines
        if i and rep["digest"] != first_digest:
            failures.append(f"repetition {i}: report differs from repetition 0")
    return attempted, failures


def measure(root: str, spec: dict, seconds: float, trace: bool,
            reference: dict) -> dict:
    """One benchmark run; returns the result object (see module docstring)."""
    start = time.monotonic()
    bench = Bench(root, spec, start + RUN_DEADLINE_S)
    failures, setups, plain, traced = [], [], [], []
    try:
        bench.child("setup")  # untimed: compiles bytecode and fills the file cache
        if trace:
            def step():
                plain.append(bench.child("run"))
                traced.append(bench.child("run", traced=True))
        else:
            # set-up runs are spread over the run, so that they sample the
            # same spells of machine speed as the repetitions
            def step():
                setups.extend(bench.child("setup")["setup_s"] for _ in range(SETUP_GROUP))
                plain.append(bench.child("run"))
        bench.repeat(seconds, step)
        if not trace:
            setups.extend(bench.child("setup")["setup_s"] for _ in range(SETUP_GROUP))
    except ChildFailed as exc:
        failures.append(str(exc))
    if trace:
        values = _layer_values(plain, traced, failures)
        units = dict(PER_LAYER)
    else:
        values = {
            "certify_s": _median([r["certify_s"] for r in plain]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        units = dict(END_TO_END)
    # a child that failed or a count that moved is one more item, failed
    attempted, lines = _judge(plain + traced, spec["checks"], reference)
    attempted = max(attempted + len(failures), 1)
    failures += lines
    values["check_fail_frac"] = len(failures) / attempted
    values["check_pass_frac"] = 1.0 - values["check_fail_frac"]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {"repetitions": len(plain) + len(traced), "setups": len(setups),
                    "certify_s": [r["certify_s"] for r in plain],
                    "wall_s": [r["wall_s"] for r in plain]},
        "missing": sorted({m for r in traced for m in r.get("missing", ())}),
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }


def _layer_values(plain, traced, failures) -> dict:
    values = {}
    if traced:
        layers = [r["layers"] for r in traced]
        for name, unit in PER_LAYER:
            if name not in layers[0]:
                continue
            samples = [layer[name] for layer in layers]
            if unit == "s":
                values[name] = _median(samples)
            else:
                values[name] = samples[0]
                if any(s != samples[0] for s in samples):
                    failures.append(f"count {name} differs between repetitions")
    check_s = {}
    for rep in plain:
        for name, seconds in rep["check_s"].items():
            check_s.setdefault(name, []).append(seconds)
    for name, samples in check_s.items():
        values[f"cli.check.{name}_s"] = _median(samples)
    values["restriction_s"] = _median(
        [sum(r["check_s"].get(c, 0.0) for c in RESTRICTION_CHECKS) for r in plain])
    values["quadric_s"] = _median(
        [sum(r["check_s"].get(c, 0.0) for c in QUADRIC_CHECKS) for r in plain])
    if plain:
        values["report.json_bytes"] = plain[0]["json_bytes"]
    untraced = _median([r["certify_s"] for r in plain])
    values["trace.traced_certify_s"] = _median([r["certify_s"] for r in traced])
    if untraced and traced:
        values["trace.overhead_frac"] = values["trace.traced_certify_s"] / untraced - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "petcoh", "__init__.py")):
        print("perfbench: no src/petcoh here; run from the root of a petcoh checkout",
              file=sys.stderr)
        return 2
    spec = make_spec(args.workload, args.seed)
    print("provenance: " + json.dumps(provenance(root)))
    result = measure(root, spec, args.seconds, bool(args.trace), gate.load_reference())
    print("types: " + ",".join(spec["types"]) + "; checks: " + ",".join(spec["checks"]))
    print("samples: " + json.dumps(result.pop("samples")))
    missing = result.pop("missing")
    if missing:
        print("missing (read as 0): " + ", ".join(missing))
    for line in result.pop("failures")[:20]:
        print("FAIL " + line)
        print("perfbench: FAIL " + line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
