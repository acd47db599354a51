"""Every function the package defines is called by a run, or says why not;
every oracle in ``tests/oracles.py`` is used by a test."""

import ast
import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

import petcoh
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
    "roots.is_positive_root_vector":
        "only inversion_roots reads it; leaves with billey_localization",
    "roots.CartanMatrix.positive_roots":
        "perfbench/selftest.py::test_missing_name_reported installs its "
        "tracer target and fails without it; leaves with ROADMAP item 2",
    "roots.simple_reflection_action":
        "positive_roots closes the simple roots under it; petcoh exports it",
    "weyl.word_to_str":
        "WeylElement reprs and the test oracles print words with it; "
        "petcoh exports it",
    "weyl.WeylGroup.identity":
        "inversion_roots and _prefix_recursion start from it; leaves with "
        "billey_localization",
    "weyl.WeylGroup.right_action":
        "inversion_roots and _prefix_recursion multiply by it; leaves with "
        "billey_localization",
    "roots.is_negative_root_vector":
        "only _prefix_recursion reads it; leaves with billey_localization",
    "peterson.PetersonModel.group":
        "no check reads the group; perfbench/child.py passes one to the "
        "model, and the test oracles read it",
    "report.CheckRecord.to_dict":
        "the tests compare records by it; a report reads the records' "
        "fields, not their copies",
    "report.CertificationReport.to_dict":
        "the tests compare reports by it; a suite entry is the report's "
        "own fields, not their copy",
    "report.jsonable":
        "to_dict and CheckRecord.to_dict copy with it, and to_text prints "
        "parameters through it; a run here reads the fields as built",
    "report.strip_timing":
        "perfbench/child.py and the tests digest reports with it",
    "report.CertificationReport.to_text":
        "certify prints it in the default text format; the run here asks "
        "for json",
    "commalg.groebner_basis":
        "perfbench/selftest.py::test_bypasses indexes its "
        "commalg.groebner_basis counter; leaves with ROADMAP item 2",
    "commalg._grevlex":
        "only groebner_basis runs it; leaves with it",
    "commalg._reducer":
        "only groebner_basis runs it; leaves with it",
    "commalg._reduce":
        "only groebner_basis runs it; leaves with it",
    "commalg.s_polynomial":
        "only groebner_basis runs it; leaves with it",
}

# the word bookkeeping of Weyl elements, which no run calls, is test code
# in tests/oracles.py
MOVED_TO_ORACLES = ("right_descends", "right_multiply", "_delete_letter",
                    "from_word", "longest_element", "v_K", "all_elements",
                    "descents")


def _modules():
    """Each module of ``src/petcoh`` by its short name, imported."""
    return {info.name: importlib.import_module(f"petcoh.{info.name}")
            for info in pkgutil.iter_modules(petcoh.__path__)
            if info.name != "__main__"}  # importing it runs the CLI


def _cached_functions():
    """Every ``lru_cache`` wrapper of a module-level function of
    ``src/petcoh``."""
    return [obj for module in _modules().values()
            for obj in vars(module).values()
            if hasattr(obj, "cache_clear")
            and getattr(obj, "__module__", None) == module.__name__]


def _defined_functions():
    """Code object -> qualified name of every module-level function and
    every method of a class defined in ``src/petcoh``, dunders left out.
    A function behind ``lru_cache`` is read through ``__wrapped__``, so a
    cached function that no run calls is seen too."""
    out = {}
    for short, module in _modules().items():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = getattr(obj, "__wrapped__", obj)
            if inspect.isfunction(obj):
                out[obj.__code__] = f"{short}.{name}"
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
                        out[member.__code__] = f"{short}.{name}.{attr}"
    return out


def test_every_function_is_called_or_allowed():
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # so that every cached function runs afresh: the quadric ideal and the
    # closed forms
    for cached in _cached_functions():
        cached.cache_clear()
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


def _names(tree) -> set[str]:
    """Every identifier a syntax tree mentions: names, attributes, imported
    names and identifier strings (as ``monkeypatch.setattr`` takes them)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def test_every_oracle_is_used():
    # a top-level function or class of tests/oracles.py must be named in
    # some tests/test_*.py, or by an oracle that is, so that no oracle
    # stays once its last test is gone
    here = Path(__file__).parent
    body = ast.parse((here / "oracles.py").read_text()).body
    mentions = {}  # top-level name -> the names its definition mentions
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            mentions[node.name] = _names(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                mentions[target.id] = _names(node.value)
    tested = set().union(*(_names(ast.parse(path.read_text()))
                           for path in here.glob("test_*.py")
                           if path.name != Path(__file__).name))
    used, frontier = set(), tested & set(mentions)
    while frontier:
        used |= frontier
        frontier = set().union(*(mentions[name] for name in frontier)) \
            & set(mentions) - used
    defined = {node.name for node in body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined - used == set()


def test_every_import_is_read():
    # an imported name that its module never reads as a name is idle;
    # an attribute of the same name (``model.minor_route``) is no read,
    # and ``__init__``'s ``__all__`` reads the names it exports
    idle = []
    for path in sorted(Path(petcoh.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                read |= set(ast.literal_eval(node.value))
        idle += [f"{path.name}:{line} {name}"
                 for name, line in imported.items() if name not in read]
    assert idle == []
