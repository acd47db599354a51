"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py setup '<spec json>'
    python3 perfbench/child.py run '<spec json>' [trace]

``setup`` times importing petcoh and building the Cartan matrix, Weyl group
and Peterson model (every w_K) of each type.  ``run`` times the workload's
calls, as ``petcoh suite`` or ``petcoh certify --format json`` makes them,
with the tracer installed when ``trace`` is given.  Every section is timed
in wall seconds and in reference seconds (see speed.py), and the report's
and the tracer's timings are scaled into reference seconds.  The last line
of standard output is a JSON object with the measurements.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import gate
from speed import SpeedProbe


def _check_source(spec):
    import petcoh

    where = os.path.dirname(os.path.abspath(petcoh.__file__))
    if os.path.dirname(where) != spec["src"]:
        raise RuntimeError(f"petcoh imported from {where}, not from {spec['src']}")


def setup(spec) -> dict:
    with SpeedProbe() as timer:
        from petcoh.peterson import PetersonModel
        from petcoh.roots import cartan_matrix, parse_lie_type
        from petcoh.weyl import WeylGroup

        for lie_type in spec["types"]:
            cartan = cartan_matrix(parse_lie_type(lie_type))
            PetersonModel(cartan, WeylGroup(cartan))
    _check_source(spec)
    return {"setup_s": timer.reference_s, "wall_s": timer.wall_s}


def run(spec, traced: bool) -> dict:
    import petcoh.cli as cli
    from petcoh.report import strip_timing

    _check_source(spec)
    if not spec["suite"] and len(spec["types"]) != 1:
        raise ValueError("a certify workload takes exactly one type")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    config = cli.RunConfig(lie_type=spec["types"][0], checks=tuple(spec["checks"]))
    start = time.perf_counter()
    with SpeedProbe() as timer:
        if spec["suite"]:
            text = json.dumps(cli.run_suite(spec["types"], config), indent=2,
                              sort_keys=True)
        else:
            text = cli.run_certification(config).to_json()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    # report and tracer timings include the probes; scale them by reference
    # seconds per elapsed second so that they read in reference seconds too
    scale = timer.reference_s / elapsed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    data = json.loads(text)
    entries = data["types"] if spec["suite"] else [data]
    check_s = {}
    for entry in entries:
        for name, seconds in entry.get("timing", {}).items():
            if name != "total":
                check_s[name] = check_s.get(name, 0.0) + seconds * scale
    stripped = json.dumps(strip_timing(data), sort_keys=True).encode()
    out = {
        "certify_s": timer.reference_s,
        "wall_s": timer.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "json_bytes": len(stripped),
        "check_s": check_s,
        "digest": hashlib.sha256(stripped).hexdigest(),
        "observed": gate.observe(entries),
    }
    if tracer is not None:
        from tracer import PER_LAYER, layer_metrics

        seconds = {name for name, unit in PER_LAYER if unit == "s"}
        out["layers"] = {name: value * scale if name in seconds else value
                         for name, value in layer_metrics(tracer.stats).items()}
        out["missing"] = tracer.missing
    return out


def main(argv) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    if mode == "setup":
        result = setup(spec)
    elif mode == "run":
        result = run(spec, traced=argv[2:] == ["trace"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
