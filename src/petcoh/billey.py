"""Localization of equivariant Schubert classes at Weyl group elements.

Billey's formula computes sigma_v(w) from a fixed reduced word b_1 .. b_m of
w: every embedding of a reduced word of v as a subword of b_1 .. b_m
contributes the product of the roots
r(j, w) = s_{b_1} .. s_{b_{j-1}}(alpha_{b_j}) over the embedded positions.
Each factor is a positive root, so the result expands with non-negative
coefficients in the simple roots.

The sum is evaluated by its prefix recursion rather than by scanning the
C(m, l(v)) position sets.  Write w_j = s_{b_1} .. s_{b_j}.  An embedding
into the first j letters either avoids position j or ends there, and it
ends there exactly when b_j is a right descent of u, so

    sigma_u(w_j) = sigma_u(w_{j-1}) + r(j, w) sigma_{u s_{b_j}}(w_{j-1})

when u s_{b_j} < u, and sigma_u(w_j) = sigma_u(w_{j-1}) otherwise, starting
from sigma_e = 1 and sigma_u = 0 for u != e.  The recursion only visits
the lower weak order ideal of the targets: every u reached from a target by
repeatedly stepping down a right descent.  One pass over the letters costs
m * |ideal| polynomial updates, and it adds up the same products as the
subword formula, so the values agree term for term.

The recursion only adds products of the roots r(j, w), so it commutes with
any ring map applied to those roots.  Restricting to the one-dimensional
subtorus S sends every simple root to t and so a positive root r to
ht(r) t, its height times t.  Running the same recursion on the
one-coordinate roots (ht(r(j, w)),) therefore gives sigma_u(w)|_S directly
as c_u t^l(u), in integers: ``localization_table`` runs it on the inversion
roots and ``restricted_table`` on their heights.

Every prefix of a reduced word is itself reduced, and the recursion builds
the table {u: sigma_u(w_j)} from the table at w_{j-1} by one letter step.
So the tables of all reduced words of length <= m, which the word-
independence sweep compares, share their steps along the trie of those
words: ``reduced_word_tables`` walks the trie depth first, and each child
holds a shallow copy of its parent's table in which only the entries u
with right descent b_j, l(u) <= j and sigma_{u s_b}(w_{j-1}) != 0 are
replaced by new dicts.  Each trie node costs one letter step instead of a
full pass over its word, and the step lists are built once for all words.
"""

from __future__ import annotations

from .commalg import Poly
from .roots import is_negative_root_vector, is_positive_root_vector
from .weyl import WeylElement, WeylGroup


def inversion_roots(group: WeylGroup, w: WeylElement) -> list[tuple[int, ...]]:
    """The roots r(i, w) = s_{b_1}..s_{b_{i-1}}(alpha_{b_i}) along the
    witness word of w.  Every entry is a positive root."""
    prefix = group.identity.action
    out = []
    for b in w.witness_word:
        r = tuple(row[b - 1] for row in prefix)
        assert is_positive_root_vector(r), "r(i, w) must be a positive root"
        out.append(r)
        prefix = group.right_action(prefix, b)
    return out


def _prefix_recursion(group: WeylGroup, targets, w: WeylElement, roots,
                      nvars: int) -> list:
    """(u, {exponent tuple: integer coefficient}) for every target u that
    can be nonzero at w, by the prefix recursion over w's witness word;
    roots[j] is r(j, w) in whichever nvars coordinates the caller chose."""
    word = w.witness_word
    support = set(word)
    # sigma_u(w) = 0 unless some subword of w's word is a reduced word of u,
    # which needs l(u) <= l(w) and every letter of u among those of w
    live = [u for u in targets
            if u.length <= w.length and support.issuperset(u.witness_word)]

    # the ideal: action -> {exponent tuple: positive integer coefficient}
    values: dict = {}
    edges = []
    stack = [u.action for u in live]
    while stack:
        action = stack.pop()
        if action in values:
            continue
        values[action] = {}
        for b in support:
            if is_negative_root_vector(tuple(row[b - 1] for row in action)):
                lower = group.right_action(action, b)
                edges.append((b, action, lower))
                stack.append(lower)
    # per letter b, the values of u and of u s_b for every u with descent b
    steps: dict[int, list] = {b: [] for b in support}
    for b, upper, lower in edges:
        steps[b].append((values[upper], values[lower]))

    if live:
        values[group.identity.action][(0,) * nvars] = 1
    raised: dict = {}
    for b, root in zip(word, roots):
        factor = [(k, c) for k, c in enumerate(root) if c]
        for target, source in steps[b]:
            # b is an ascent of u s_b, so no source changes during this step
            _add_product(target, source, factor, raised)
    return [(u, values[u.action]) for u in live]


def _add_product(target: dict, source: dict, factor, raised: dict) -> None:
    """target += r * source on {exponent tuple: int} dicts, where factor
    lists the nonzero coordinates (k, r_k) of the root r.  raised caches,
    per exponent tuple, the tuples with one coordinate raised by one, so
    every table of a call shares one tuple per monomial."""
    for exps, c in source.items():
        up = raised.get(exps)
        if up is None:
            up = raised[exps] = tuple(exps[:k] + (exps[k] + 1,) + exps[k + 1:]
                                      for k in range(len(exps)))
        for k, rk in factor:
            grown = up[k]
            target[grown] = target.get(grown, 0) + c * rk


def reduced_word_tables(group: WeylGroup, elements, max_len: int) -> dict:
    """{word: {u.action: {exponent tuple: int}}} for every reduced word of
    length <= max_len: the nonzero sigma_u(w) over u in elements, w the
    element of the word.  elements must be a lower weak order ideal, closed
    under u -> u s_b for every right descent b, as every element of length
    <= max_len is.

    One depth-first walk over the trie of reduced words: a child's table is
    its parent's, shallow-copied, with the entries changed by the one new
    letter replaced (see the module docstring).  The words are built here,
    so no reduced words are enumerated.
    """
    nodes = group.cartan.nodes()
    # per letter b, by length: (l(u), u, u s_b) for each u with right descent b
    steps: dict[int, list] = {b: [] for b in nodes}
    for u in sorted(elements, key=lambda u: u.length):
        for b in nodes:
            if group.right_descends(u, b):
                steps[b].append(
                    (u.length, u.action, group.right_action(u.action, b)))

    tables: dict = {}
    raised: dict = {}

    def visit(word, action, table):
        tables[word] = table
        depth = len(word) + 1
        if depth > max_len:
            return
        for b in nodes:
            # r(depth, w) is column b of the prefix; negative means that
            # word + (b,) is not reduced
            root = tuple(row[b - 1] for row in action)
            if is_negative_root_vector(root):
                continue
            factor = [(k, c) for k, c in enumerate(root) if c]
            child = dict(table)
            for length, target, lower in steps[b]:
                if length > depth:
                    break
                source = table.get(lower)
                if source is not None:
                    grown = dict(table.get(target, {}))
                    _add_product(grown, source, factor, raised)
                    child[target] = grown
            visit(word + (b,), group.right_action(action, b), child)

    identity = group.identity.action
    visit((), identity, {identity: {(0,) * group.rank: 1}})
    return tables


def localization_table(group: WeylGroup, targets, w: WeylElement) -> dict:
    """{u: sigma_u(w)} for every target u, by the prefix recursion over the
    witness word of w on the lower weak order ideal of the targets."""
    n = group.rank
    targets = tuple(targets)
    table = {u: Poly(n) for u in targets}
    for u, terms in _prefix_recursion(
            group, targets, w, inversion_roots(group, w), n):
        table[u] = Poly(n, terms)
    return table


def restricted_table(group: WeylGroup, targets, w: WeylElement) -> dict:
    """{u: c_u} for every target u, with sigma_u(w)|_S = c_u t^l(u): the
    prefix recursion run on the heights of the roots r(j, w)."""
    targets = tuple(targets)
    table = dict.fromkeys(targets, 0)
    heights = [(sum(r),) for r in inversion_roots(group, w)]
    for u, terms in _prefix_recursion(group, targets, w, heights, 1):
        table[u] = sum(terms.values())  # the one term t^l(u), if any
    return table


def billey_localization(group: WeylGroup, v: WeylElement, w: WeylElement) -> Poly:
    """sigma_v(w), a polynomial in the simple roots: the sum over embeddings
    of reduced words of v in w's witness word of the product of the positive
    roots at the embedded positions."""
    return localization_table(group, (v,), w)[v]
