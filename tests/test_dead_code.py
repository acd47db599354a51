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

# qualified name -> why no run of ``petcoh suite`` or ``petcoh certify``
# calls it
ALLOWED = {
    "billey.billey_localization": "perfbench traces it",
    "billey.localization_table": "perfbench traces it",
    "billey._prefix_recursion":
        "only localization_table runs it, and perfbench traces "
        "billey_localization",
    "roots.CartanMatrix.positive_roots": "perfbench traces it",
    "weyl.WeylGroup.all_elements": "perfbench's self-test enumerates the group",
    "weyl.WeylGroup._delete_letter":
        "right_multiply needs it on a descent, which no run takes",
    "weyl.WeylGroup.longest_element":
        "perfbench traces it; the rows grow each w_K from w_(K - m) in one "
        "walk of the subset lattice",
    "billey.inversion_roots":
        "perfbench traces it; only _prefix_recursion reads it",
    "weyl.WeylGroup.right_multiply":
        "perfbench traces it; longest_element and from_word build with it",
    "weyl.WeylGroup.right_descends":
        "longest_element and right_multiply test descents with it",
    "weyl.WeylGroup.from_word":
        "the tests build elements from words with it; v_K calls it",
    "weyl.WeylGroup.v_K":
        "the tests name the v_K with it; giambelli counts their words on "
        "the subset steps",
    "roots.simple_reflection_action": "_delete_letter reflects with it",
    "weyl.word_to_str": "only failure paths and WeylElement reprs print words",
    "report.strip_timing": "perfbench and the tests compare reports with it",
    "report.CertificationReport.to_text":
        "certify prints it in the default text format; the run here asks "
        "for json",
    "commalg.groebner_basis":
        "the public basis API, in the generator form of Ideal; the checks "
        "read the engine's packed leads",
    "commalg.MonomialCode.decode":
        "groebner_basis unpacks the basis into exponent tuples with it",
}


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

    # so that every quadric ideal, basis and series is rebuilt
    commalg.build_ideal_J.cache_clear()
    commalg.build_ideal_Jcheck.cache_clear()
    commalg._groebner_basis.cache_clear()
    commalg._hilbert_series.cache_clear()
    commalg.t_section_leads.cache_clear()
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
