"""Per-layer tracing of petcoh from outside the package.

The tracer wraps functions and methods of each petcoh module and keeps, per
layer, the number of calls, the inclusive time of the outermost calls and the
self time (duration minus the time covered by traced child calls, so a
recursive call is counted once).  A few layers carry extra counters filled by
a hook that sees the call's arguments, result and exception.

Module-level functions are replaced in every petcoh namespace that bound the
same object (``from .billey import billey_localization`` in ``peterson`` and
``cli``, ``leading_minors_positive`` in ``commalg``); methods are replaced on
their class.  A name that no longer exists is reported as missing.

Spans are aggregated per layer rather than logged one by one, which keeps
the tracer's memory flat.
"""

from __future__ import annotations

import copy
import functools
import importlib
import sys
import time
from math import comb

from workloads import ALL_CHECKS


def _reduced_words(stats, args, kwargs, result, exc, children):
    if exc is None:
        stats["words"] += len(result)


def _localization(stats, args, kwargs, result, exc, children):
    v, w = args[1], args[2]
    stats["max_w_len"] = max(stats["max_w_len"], w.length)
    if v.length <= w.length:
        stats["subwords"] += comb(w.length, v.length)
    if exc is None:
        stats["zeros"] += not result
    elif type(exc).__name__ == "ResourceCapError":
        stats["budget_skips"] += 1


def _memo_hit(stats, args, kwargs, result, exc, children):
    # a memo hit localizes nothing, so it opens no traced child call
    stats["hits"] += not children


def _matrix_shape(stats, args, kwargs, result, exc, children):
    rows = args[0]
    stats["rows"] += len(rows)
    stats["cols"] = max(stats["cols"], len(rows[0]) if rows else 0)


def _groebner(stats, args, kwargs, result, exc, children):
    ordering = args[1] if len(args) > 1 else kwargs.get("ordering", "grevlex")
    stats["keys"].add((args[0], ordering))
    if exc is None:
        stats["basis_size"] += len(result)


# (layer, module, attribute path, hook, extra counters)
TARGETS = (
    ("roots.positive_roots", "petcoh.roots", "CartanMatrix.positive_roots", None, {}),
    ("roots.leading_minors_positive", "petcoh.roots", "leading_minors_positive", None, {}),
    ("weyl.right_multiply", "petcoh.weyl", "WeylGroup.right_multiply", None, {}),
    ("weyl.longest_element", "petcoh.weyl", "WeylGroup.longest_element", None, {}),
    ("weyl.enumerate_reduced_words", "petcoh.weyl", "WeylGroup.enumerate_reduced_words",
     _reduced_words, {"words": 0}),
    ("weyl.count_reduced_words", "petcoh.weyl", "WeylGroup.count_reduced_words", None, {}),
    ("weyl.bruhat_leq", "petcoh.weyl", "WeylGroup.bruhat_leq", None, {}),
    ("billey.localization", "petcoh.billey", "billey_localization", _localization,
     {"subwords": 0, "zeros": 0, "max_w_len": 0, "budget_skips": 0}),
    ("billey.inversion_roots", "petcoh.billey", "inversion_roots", None, {}),
    ("billey.restrict_to_S", "petcoh.billey", "restrict_to_S", None, {}),
    ("peterson.schubert_class", "petcoh.peterson", "PetersonModel.schubert_class",
     _memo_hit, {"hits": 0}),
    ("peterson.verify_monk", "petcoh.peterson", "PetersonModel.verify_monk", None, {}),
    ("peterson.monk_coefficient", "petcoh.peterson", "PetersonModel.monk_coefficient", None, {}),
    ("peterson.class_mul", "petcoh.peterson", "PetersonClass.__mul__", None, {}),
    ("peterson.verify_basis_triangular", "petcoh.peterson",
     "PetersonModel.verify_basis_triangular", None, {}),
    ("peterson.image_graded_dimensions", "petcoh.peterson",
     "PetersonModel.image_graded_dimensions", None, {}),
    ("peterson.rank", "petcoh.peterson", "_rank", _matrix_shape, {"rows": 0, "cols": 0}),
    ("commalg.groebner_basis", "petcoh.commalg", "groebner_basis", _groebner,
     {"keys": set(), "basis_size": 0}),
    ("commalg.normal_form", "petcoh.commalg", "normal_form", None, {}),
    ("commalg.s_polynomial", "petcoh.commalg", "s_polynomial", None, {}),
    ("commalg.hilbert_series_of_quotient", "petcoh.commalg", "hilbert_series_of_quotient",
     None, {}),
    ("commalg.monomial_numerator", "petcoh.commalg", "_monomial_quotient_numerator", None, {}),
    ("commalg.is_regular_sequence", "petcoh.commalg", "is_regular_sequence", None, {}),
    ("commalg.zero_set_is_origin", "petcoh.commalg", "zero_set_is_origin", None, {}),
    ("commalg.zero_set_via_minors", "petcoh.commalg", "zero_set_via_minors", None, {}),
    ("report.to_dict", "petcoh.report", "CertificationReport.to_dict", None, {}),
)

LAYERS = frozenset(target[0] for target in TARGETS)


class Tracer:
    """Installs the wrappers; ``stats`` maps each layer to its counters."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple] = []

    def install(self, targets=TARGETS):
        for layer, module_name, path, hook, extra in targets:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            stats = {"calls": 0, "s": 0.0, "self_s": 0.0}
            stats.update(copy.deepcopy(extra))
            self.stats[layer] = stats
            wrapper = self._wrap(layer, original, stats, hook)
            if parents:
                self._replace(owner, attr, original, wrapper)
            else:
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "petcoh" or name.startswith("petcoh.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, layer, fn, stats, hook):
        stack = self._stack
        depth = self._depth
        depth[layer] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]  # seconds covered by child calls, child count
            stack.append(frame)
            depth[layer] += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                if not depth[layer]:
                    stats["s"] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                if hook is not None:
                    hook(stats, args, kwargs, result, exc, frame[1])

        return functools.wraps(fn)(wrapper)


def _frac(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(stats: dict) -> dict:
    """Per-layer metric values by name, from one traced run's stats.  A
    layer that was missing reads 0."""

    def get(layer, field):
        return stats.get(layer, {}).get(field, 0)

    values = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if layer in LAYERS:
            values[name] = get(layer, field)
    gb_calls = get("commalg.groebner_basis", "calls")
    gb_distinct = len(get("commalg.groebner_basis", "keys") or ())
    values.update({
        "billey.localization.zero_frac": _frac(
            get("billey.localization", "zeros"), get("billey.localization", "calls")),
        "peterson.schubert_class.hit_frac": _frac(
            get("peterson.schubert_class", "hits"), get("peterson.schubert_class", "calls")),
        "peterson.image_graded_dimensions.rows": get("peterson.rank", "rows"),
        "peterson.image_graded_dimensions.cols": get("peterson.rank", "cols"),
        "commalg.groebner_basis.distinct": gb_distinct,
        "commalg.groebner_basis.dup_frac": _frac(gb_calls - gb_distinct, gb_calls),
        "commalg.monomial_numerator.nodes": get("commalg.monomial_numerator", "calls"),
    })
    return values


# Every per-layer metric the benchmark prints with --trace 1, with its unit.
PER_LAYER = (
    ("restriction_s", "s"),
    ("quadric_s", "s"),
    ("check_fail_frac", "ratio"),
    ("trace.traced_certify_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("roots.positive_roots.s", "s"),
    ("roots.leading_minors_positive.calls", "count"),
    ("weyl.right_multiply.calls", "count"),
    ("weyl.right_multiply.self_s", "s"),
    ("weyl.longest_element.calls", "count"),
    ("weyl.longest_element.s", "s"),
    ("weyl.enumerate_reduced_words.calls", "count"),
    ("weyl.enumerate_reduced_words.words", "count"),
    ("weyl.enumerate_reduced_words.self_s", "s"),
    ("weyl.count_reduced_words.calls", "count"),
    ("weyl.bruhat_leq.calls", "count"),
    ("weyl.bruhat_leq.s", "s"),
    ("billey.localization.calls", "count"),
    ("billey.localization.self_s", "s"),
    ("billey.localization.subwords", "count"),
    ("billey.localization.zero_frac", "ratio"),
    ("billey.localization.max_w_len", "count"),
    ("billey.localization.budget_skips", "count"),
    ("billey.inversion_roots.calls", "count"),
    ("billey.inversion_roots.s", "s"),
    ("billey.restrict_to_S.calls", "count"),
    ("peterson.schubert_class.calls", "count"),
    ("peterson.schubert_class.hit_frac", "ratio"),
    ("peterson.schubert_class.self_s", "s"),
    ("peterson.verify_monk.calls", "count"),
    ("peterson.verify_monk.s", "s"),
    ("peterson.monk_coefficient.calls", "count"),
    ("peterson.class_mul.calls", "count"),
    ("peterson.verify_basis_triangular.s", "s"),
    ("peterson.image_graded_dimensions.s", "s"),
    ("peterson.image_graded_dimensions.rows", "count"),
    ("peterson.image_graded_dimensions.cols", "count"),
    ("commalg.groebner_basis.calls", "count"),
    ("commalg.groebner_basis.distinct", "count"),
    ("commalg.groebner_basis.dup_frac", "ratio"),
    ("commalg.groebner_basis.self_s", "s"),
    ("commalg.groebner_basis.basis_size", "count"),
    ("commalg.normal_form.calls", "count"),
    ("commalg.normal_form.self_s", "s"),
    ("commalg.s_polynomial.calls", "count"),
    ("commalg.hilbert_series_of_quotient.calls", "count"),
    ("commalg.hilbert_series_of_quotient.s", "s"),
    ("commalg.monomial_numerator.nodes", "count"),
    ("commalg.monomial_numerator.s", "s"),
    ("commalg.is_regular_sequence.s", "s"),
    ("commalg.zero_set_is_origin.s", "s"),
    ("commalg.zero_set_via_minors.s", "s"),
    ("report.to_dict.s", "s"),
    ("report.json_bytes", "bytes"),
) + tuple((f"cli.check.{name}_s", "s") for name in ALL_CHECKS)
