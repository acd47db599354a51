"""Workload definitions shared by run.py, child.py and selftest.py.

A workload is a list of Lie types and the checks run on each.  The program
is deterministic; the seed only permutes the type order of the suite.
"""

from __future__ import annotations

import random

ALL_CHECKS = (
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
RESTRICTION_CHECKS = ALL_CHECKS[:6]
QUADRIC_CHECKS = ALL_CHECKS[6:]

# The legs `isomorphism_certified` needs; the flag can only be true when a
# workload selects all of them.
CERTIFICATE_LEGS = ("quadratic", "giambelli", "hilbert")

# Fixed here rather than read from petcoh.cli.DEFAULT_SUITE, so that the
# yardstick does not move when the program's default changes.
SUITE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2")

WORKLOADS = {
    # `petcoh suite`: many short localizations, all nine checks, ten reports.
    "suite-default": {"types": SUITE_TYPES, "checks": ALL_CHECKS, "suite": True},
    # Few, very long localizations (w_K up to length 36) and the exact rank;
    # never touches commalg.
    "restriction-E6": {
        "types": ("E6",),
        "checks": ("quadratic", "monk", "giambelli", "basis", "graded_dims"),
        "suite": False,
    },
    # The part of E7 that certifies today: Groebner bases and Hilbert series;
    # never calls billey.
    "quadric-E7": {"types": ("E7",), "checks": QUADRIC_CHECKS, "suite": False},
}


def make_spec(name: str, seed: int) -> dict:
    """The concrete inputs of one run: type order and checks."""
    workload = WORKLOADS[name]
    types = list(workload["types"])
    if workload["suite"]:
        random.Random(seed).shuffle(types)
    return {"types": types, "checks": list(workload["checks"]),
            "suite": workload["suite"]}
