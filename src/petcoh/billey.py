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

Restricting to the one-dimensional subtorus sends every simple root to t,
turning these values into polynomials in a single variable t.
"""

from __future__ import annotations

from fractions import Fraction

from .commalg import Poly, TPolynomial
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


def localization_table(group: WeylGroup, targets, w: WeylElement) -> dict:
    """{u: sigma_u(w)} for every target u, by the prefix recursion over the
    witness word of w on the lower weak order ideal of the targets."""
    n = group.rank
    targets = tuple(targets)
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
        values[group.identity.action][(0,) * n] = 1
    for b, root in zip(word, inversion_roots(group, w)):
        factor = [(k, c) for k, c in enumerate(root) if c]
        for target, source in steps[b]:
            # b is an ascent of u s_b, so no source changes during this step
            for exps, c in source.items():
                for k, rk in factor:
                    grown = exps[:k] + (exps[k] + 1,) + exps[k + 1:]
                    target[grown] = target.get(grown, 0) + c * rk
    table = {u: Poly.zero(n) for u in targets}
    for u in live:
        table[u] = Poly(n, values[u.action])
    return table


def billey_localization(group: WeylGroup, v: WeylElement, w: WeylElement) -> Poly:
    """sigma_v(w), a polynomial in the simple roots: the sum over embeddings
    of reduced words of v in w's witness word of the product of the positive
    roots at the embedded positions."""
    return localization_table(group, (v,), w)[v]


def restrict_to_S(p: Poly) -> TPolynomial:
    """Substitute alpha_i -> t for every i."""
    out: dict[int, Fraction] = {}
    for exps, c in p.terms.items():
        k = sum(exps)
        out[k] = out.get(k, Fraction(0)) + c
    if not out:
        return TPolynomial.zero()
    coeffs = [Fraction(0)] * (max(out) + 1)
    for k, c in out.items():
        coeffs[k] = c
    return TPolynomial(coeffs)
