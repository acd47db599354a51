"""Every function the package defines is called by a run, or says why not."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from functools import cached_property

import petcoh
from petcoh import commalg
from petcoh.cli import main
from petcoh.weyl import WeylGroup

# qualified name -> what keeps it in the package though no run of
# ``petcoh suite`` or ``petcoh certify`` calls it
ALLOWED = {
    "billey.billey_localization":
        "perfbench/selftest.py::test_bypasses indexes its billey.localization "
        "counter; leaves with ROADMAP item 2",
    "billey.localization_table":
        "billey_localization reads its one target off it; leaves with it",
    "billey._prefix_recursion":
        "only localization_table runs it; leaves with billey_localization",
    "billey.inversion_roots":
        "only _prefix_recursion reads it; leaves with billey_localization",
    "roots.CartanMatrix.positive_roots":
        "perfbench/selftest.py::test_missing_name_reported installs its "
        "tracer target and fails without it; leaves with ROADMAP item 2",
    "roots.simple_reflection_action":
        "positive_roots closes the simple roots under it; petcoh exports it",
    "weyl.word_to_str":
        "the billey_welldef failure witnesses and WeylElement reprs print "
        "words with it; a passing run prints none",
    "report.strip_timing":
        "perfbench/child.py and the tests digest reports with it",
    "report.CertificationReport.to_text":
        "certify prints it in the default text format; the run here asks "
        "for json",
    "commalg.groebner_basis":
        "perfbench/selftest.py::test_bypasses indexes its "
        "commalg.groebner_basis counter; leaves with ROADMAP item 2",
    "commalg.MonomialCode.decode":
        "only groebner_basis runs it; leaves with it",
    "commalg.MonomialCode._from_p":
        "only groebner_basis runs it; leaves with it",
    "commalg.MonomialCode.encode":
        "only groebner_basis runs it; leaves with it",
    "commalg.MonomialCode.degree":
        "only groebner_basis runs it; leaves with it",
    "commalg.MonomialCode.divides":
        "only groebner_basis runs it; leaves with it",
    "commalg.MonomialCode.gcd_divides":
        "only groebner_basis runs it; leaves with it",
    "commalg.MonomialCode.lcm":
        "only groebner_basis runs it; leaves with it",
    "commalg._primitive":
        "only groebner_basis runs it; leaves with it",
    "commalg._reducer":
        "only groebner_basis runs it; leaves with it",
    "commalg._cancel":
        "only groebner_basis runs it; leaves with it",
    "commalg._first_position":
        "only groebner_basis runs it; leaves with it",
    "commalg._regular_reduce":
        "only groebner_basis runs it; leaves with it",
    "commalg.s_polynomial":
        "only groebner_basis runs it; leaves with it",
    "commalg.Ideal.nvars":
        "only groebner_basis and the test oracles read it",
}

# the word bookkeeping of Weyl elements, which no run calls, is test code
# in tests/oracles.py
MOVED_TO_ORACLES = ("right_descends", "right_multiply", "_delete_letter",
                    "from_word", "longest_element", "v_K", "all_elements")


def _defined_functions():
    """Code object -> qualified name of every module-level function and
    every method of a class defined in ``src/petcoh``, dunders left out."""
    out = {}
    for info in pkgutil.iter_modules(petcoh.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"petcoh.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[obj.__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    if inspect.isfunction(member):
                        out[member.__code__] = f"{info.name}.{name}.{attr}"
    return out


def test_every_function_is_called_or_allowed():
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # so that every quadric ideal is rebuilt, and a basis a run asked for
    # would be computed, not read from the cache
    commalg.build_ideal_J.cache_clear()
    commalg.build_ideal_Jcheck.cache_clear()
    commalg._groebner_basis.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (main(["suite"]),
                     main(["certify", "--type", "A2+A1", "--format", "json"]))
    finally:
        sys.setprofile(previous)
    assert codes == (0, 0)
    defined = _defined_functions()
    assert set(ALLOWED) <= set(defined.values()), "stale allowlist entry"
    uncalled = {name for code, name in defined.items() if code not in called}
    assert uncalled - set(ALLOWED) == set()
    # an allowed function that a run now calls should leave the list
    assert uncalled >= set(ALLOWED)


def test_word_bookkeeping_is_not_a_method_of_the_group():
    assert [name for name in MOVED_TO_ORACLES if hasattr(WeylGroup, name)] \
        == []
