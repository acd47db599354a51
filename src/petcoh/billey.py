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
ht(r) t, its height times t.  Running the same recursion on the heights
gives sigma_u(w)|_S directly as c_u t^l(u), in integers.  The Peterson
classes need them for the v_J, the ascending products of the reflections
in J, and {v_J} is its own lower weak order ideal: s_b is a right descent
of v_J exactly when b is in J and no larger neighbour of b is, and then
v_J s_b = v_{J - b}.  So ``restricted_rows`` runs the recursion on one int
per node-set bitmask, along the steps (J, J - b) that ``subset_steps``
finds once per Cartan matrix.  The fixed points w_K share their words too:
greedy ascent over K from w_{K - m}, m = max K, ends at w_K, so one walk
of the masks K, in increasing order as K - m < K, resumes each w_K's
recursion from w_{K - m}'s finished column, reflecting once per new letter.
The ascent to w_K runs only the steps with J inside K, and they grow the
same way: ``_local_steps`` lists those of K as the ones of K - m followed
by the steps whose J contains m, so each subset of each K is read once.

The walk reads one thing of an element w: the heights
h_w = (ht w(alpha_1), .., ht w(alpha_n)), the column sums of its action
matrix, equal to <w^-1 rho^vee, alpha_b> with rho^vee the sum of the
fundamental coweights.  Right multiplication by s_b changes h[k] to
h[k] - a(k, b) h[b] for b and its neighbours k (``_reflect``), b is a
right descent of w exactly when h[b] < 0, and r(j, w) has height h[b_j].
The heights determine w, as rho^vee is regular and only the identity fixes
it, so ``subset_steps`` checks v_J s_b = v_{J - b} as an equality of
height vectors; nothing is hashed or keyed by them.  No root has height 0,
and w_K sends the simple roots of K to negative simple roots, of height
-1, and both are checked.  The walk builds no Weyl group, and no run
builds one.

The rows are the Peterson classes by Billey's theorem: the formula does
not depend on the word (Billey, Duke Math. J. 96, 1999).  ``billey_welldef``
compares them with their closed form, which reads no code of this walk.
"""

from __future__ import annotations

from .errors import IntegrityError
from .roots import CartanMatrix, is_negative_root_vector, is_positive_root_vector
from .weyl import WeylElement, WeylGroup


def inversion_roots(group: WeylGroup, w: WeylElement) -> list[tuple[int, ...]]:
    """The roots r(i, w) = s_{b_1}..s_{b_{i-1}}(alpha_{b_i}) along the
    witness word of w.  Every entry is a positive root."""
    prefix = group.identity.action
    out = []
    for b in w.witness_word:
        r = tuple(row[b - 1] for row in prefix)
        if not is_positive_root_vector(r):
            raise IntegrityError(f"r(i, w) = {r} is not a positive root")
        out.append(r)
        prefix = group.right_action(prefix, b)
    return out


def _prefix_recursion(group: WeylGroup, targets, w: WeylElement) -> list:
    """(u, {exponent tuple: integer coefficient}) for every target u that
    can be nonzero at w, by the prefix recursion over w's witness word on
    the roots r(j, w) in the simple-root coordinates; times alpha_k, an
    exponent tuple has its coordinate k raised by one."""
    word = w.witness_word
    support = set(word)
    # sigma_u(w) = 0 unless some subword of w's word is a reduced word of u,
    # which needs l(u) <= l(w) and every letter of u among those of w
    live = [u for u in targets
            if u.length <= w.length and support.issuperset(u.witness_word)]

    # the ideal: action -> {exponent tuple: positive integer coefficient},
    # and per letter b, (u, u s_b) for every u in it with descent b
    values: dict = {}
    steps: dict[int, list] = {b: [] for b in support}
    stack = [u.action for u in live]
    while stack:
        action = stack.pop()
        if action in values:
            continue
        values[action] = {}
        for b in support:
            if is_negative_root_vector(tuple(row[b - 1] for row in action)):
                lower = group.right_action(action, b)
                steps[b].append((action, lower))
                stack.append(lower)

    if live:
        values[group.identity.action][(0,) * group.rank] = 1
    # per exponent tuple, the tuples with one coordinate raised by one
    raised: dict = {}
    for b, root in zip(word, inversion_roots(group, w)):
        factor = [(k, c) for k, c in enumerate(root) if c]
        for upper, lower in steps[b]:
            # b is an ascent of u s_b, so no source changes during this step
            target = values[upper]
            for exps, c in values[lower].items():
                up = raised.get(exps)
                if up is None:
                    up = raised[exps] = tuple(
                        exps[:k] + (exps[k] + 1,) + exps[k + 1:]
                        for k in range(len(exps)))
                for k, rk in factor:
                    target[up[k]] = target.get(up[k], 0) + c * rk
    return [(u, values[u.action]) for u in live]


def localization_table(group: WeylGroup, targets, w: WeylElement) -> dict:
    """{u: sigma_u(w)} for every target u, each {exponent tuple: int} in the
    simple roots and {} for zero, by the prefix recursion over the witness
    word of w on the lower weak order ideal of the targets."""
    targets = tuple(targets)
    table = {u: {} for u in targets}
    table.update(_prefix_recursion(group, targets, w))
    return table


def _reflect(heights: tuple, b: int, updates) -> tuple:
    """h_{w s_b} from h_w, ``updates`` as ``CartanMatrix.column_updates``
    gives them: (w s_b)(alpha_k) = w(alpha_k) - a(k, b) w(alpha_b), the
    rule ``WeylGroup.right_action`` applies to every matrix row, so only b
    and its neighbours change."""
    x = heights[b - 1]
    out = list(heights)
    for k, a in updates[b]:
        out[k] -= a * x
    return tuple(out)


def subset_steps(cartan: CartanMatrix) -> dict[int, list[tuple[int, int]]]:
    """Per letter b, (mask of J, mask of J - b) for every node set J with
    right descent b of v_J, by mask; node i is bit i - 1.  v_J is v_{J - m}
    s_m for the largest node m of J, and its descents are read off its
    heights h_{v_J}.  v_J s_b = v_{J - b} is checked as h_{v_J s_b} =
    h_{v_(J - b)}, which is sound because the heights are <w^-1 rho^vee,
    alpha_b> and rho^vee is regular: only the identity fixes it."""
    updates = cartan.column_updates()
    heights = [(1,) * cartan.rank]
    steps: dict[int, list] = {b: [] for b in cartan.nodes()}
    for J in range(1, 1 << cartan.rank):
        top = J.bit_length()
        h = _reflect(heights[J ^ 1 << top - 1], top, updates)
        heights.append(h)
        for b, height in enumerate(h, 1):
            if height > 0:
                continue
            if not height:
                raise IntegrityError(
                    f"ht v_J(alpha_{b}) = 0 for J = {J:#b}; no root has "
                    f"height 0")
            lower = J ^ 1 << b - 1
            if not (lower < J and _reflect(h, b, updates) == heights[lower]):
                raise IntegrityError(
                    f"v_J s_b is not v_(J - b) for J = {J:#b}, b = {b}")
            steps[b].append((J, lower))
    return steps


def restricted_rows(cartan: CartanMatrix, steps) -> tuple[tuple[int, ...], ...]:
    """Row J, column L: c with sigma_{v_J}(w_L)|_S = c t^|J|, both by mask
    (node i is bit i - 1), along the descent steps of ``subset_steps``.

    One walk of the masks L in increasing order builds every column.  The
    column of L starts as the finished column of w_{L - m}, m = max L (as
    L - m < L, walked before it), and ascends from its heights
    (``_ascend``): greedy ascent from any element of W_L ends at w_L, the
    one element of W_L with every node of L a descent, and the word it
    spells, w_{L - m}'s word followed by the new letters, is reduced
    because every letter is an ascent.  So the column is the recursion
    over one reduced word of w_L, resumed where w_{L - m}'s stopped.

    The column of L runs only the steps (J, J - b) with J inside L, read
    as ``_local_steps`` lists them: a column is 0 at every J not inside
    its L.  That holds at the empty L, and if it holds for L - m, a step
    (J, J - b) with b in L and J not inside L has J - b not inside L, so
    it adds 0 and J stays 0.
    """
    size = 1 << cartan.rank
    walked = []  # per mask L: the nodes of L, the heights of w_L, the column
    for L, local in enumerate(_local_steps(steps, size)):
        if L:
            top = L.bit_length()
            K, start, values = walked[L ^ 1 << top - 1]
            K, values = K + (top,), values.copy()
        else:
            K, start, values = (), (1,) * cartan.rank, [1] + [0] * (size - 1)
        heights = _ascend(cartan, start, K, local, values)
        walked.append((K, heights, values))
    return tuple(zip(*(column for _, _, column in walked)))


def _local_steps(steps, size: int):
    """Per mask L below ``size``, in increasing order, the steps of L: per
    node b of L, the steps (J, J - b) of ``steps[b]`` whose J lies inside
    L, in increasing order of J; ``restricted_rows`` is its one reader.

    With m = max L, every subset of L - m is below m's bit, so L's steps
    of a letter are those of L - m (yielded before L, as L - m < L)
    followed by the ones whose J contains m: J runs over m's bit plus the
    subsets of L - m, in increasing order, each adding its own steps, and
    m itself starts with none.  Each subset of each L is read once, (3^n -
    1) / 2 in all, where a search of L's subsets per node of L reads
    n 3^(n - 1).  Only the steps of the masks below size / 2, those
    without the top node, are kept, as no later mask grows from the
    others."""
    by_J = [[] for _ in range(size)]  # per J, (b, (J, J - b)) per step
    for b, pairs in steps.items():
        for pair in pairs:
            by_J[pair[0]].append((b, pair))
    kept = [{}]
    yield kept[0]
    for L in range(1, size):
        m = L.bit_length()
        top = 1 << m - 1
        rest = L ^ top
        local = {b: pairs.copy() for b, pairs in kept[rest].items()}
        local[m], sub = [], 0
        while True:  # every subset of rest, increasing
            for b, pair in by_J[sub | top]:
                local[b].append(pair)
            if sub == rest:
                break
            sub = sub - rest & rest
        if L < size >> 1:
            kept.append(local)
        yield local


def _ascend(cartan: CartanMatrix, heights: tuple, K, steps, values: list):
    """The heights of w_K, by greedy ascent over the nodes K (the first
    ascent in the order of K after each letter) from ``heights``, those of an
    element of W_K.  Each letter b adds its root's height h[b] times the
    value at J - b to the value at J over b's steps in ``values``, and
    reflects the heights once.  At the end every node of K has height -1."""
    updates = cartan.column_updates()
    while True:
        for b in K:
            height = heights[b - 1]
            if height > 0:
                break
            if not height:
                raise IntegrityError(
                    f"ht w(alpha_{b}) = 0 on the ascent to w_K for K = {K}; "
                    f"no root has height 0")
        else:
            if any(heights[b - 1] != -1 for b in K):
                raise IntegrityError(
                    f"the ascent to w_K for K = {K} ends at heights "
                    f"{heights}, not -1 on K")
            return heights
        # b is an ascent of v_{J - b}, so no source changes in this step
        for J, lower in steps[b]:
            values[J] += height * values[lower]
        heights = _reflect(heights, b, updates)


def billey_localization(group: WeylGroup, v: WeylElement, w: WeylElement) -> dict:
    """sigma_v(w), {exponent tuple: int} in the simple roots and {} for
    zero: the sum over embeddings of reduced words of v in w's witness word
    of the product of the positive roots at the embedded positions."""
    return localization_table(group, (v,), w)[v]
