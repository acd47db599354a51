"""Localization of equivariant Schubert classes at Weyl group elements.

The localization sigma_v(w) is computed from a fixed reduced word
b_1 .. b_m of w: every embedding of a reduced word of v as a subword of
b_1 .. b_m contributes the product of the roots
r(i, w) = s_{b_1} .. s_{b_{i-1}}(alpha_{b_i}) over the embedded positions.
Each factor is a positive root, so the result expands with non-negative
coefficients in the simple roots.

Restricting to the one-dimensional subtorus sends every simple root to t,
turning these values into polynomials in a single variable t.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .commalg import Poly, TPolynomial
from .errors import ResourceCapError
from .roots import is_positive_root_vector
from .weyl import WeylElement, WeylGroup, _mat_mul

# Upper bound on subword embeddings examined for one localization; large
# enough for every rank <= 4 pipeline, small enough to refuse E7/E8-sized
# blowups instead of hanging.
EMBEDDING_BUDGET = 10_000_000


def inversion_roots(group: WeylGroup, w: WeylElement) -> list[tuple[int, ...]]:
    """The roots r(i, w) = s_{b_1}..s_{b_{i-1}}(alpha_{b_i}) along the
    witness word of w.  Every entry is a positive root."""
    n = group.rank
    prefix = group.identity.action
    out = []
    for b in w.witness_word:
        e_b = tuple(1 if k == b - 1 else 0 for k in range(n))
        r = tuple(sum(prefix[row][k] * e_b[k] for k in range(n)) for row in range(n))
        assert is_positive_root_vector(r), "r(i, w) must be a positive root"
        out.append(r)
        prefix = _mat_mul(prefix, group._reflection_matrices[b])
    return out


def billey_localization(group: WeylGroup, v: WeylElement, w: WeylElement) -> Poly:
    """sigma_v(w), a polynomial in the simple roots: sum over embeddings of
    reduced words of v in w's witness word of the product of the positive
    roots at the embedded positions."""
    n = group.rank
    ell = v.length
    m = w.length
    if ell > m:
        return Poly.zero(n)
    if ell == 0:
        return Poly.one(n)
    if comb(m, ell) > EMBEDDING_BUDGET:
        raise ResourceCapError(
            f"localization would scan C({m},{ell}) subwords, over the budget "
            f"of {EMBEDDING_BUDGET}")
    reduced_words = group.enumerate_reduced_words(v)
    word = w.witness_word
    factors = [Poly.linear(r) for r in inversion_roots(group, w)]
    total = Poly.zero(n)
    for positions in combinations(range(m), ell):
        if tuple(word[p] for p in positions) not in reduced_words:
            continue
        term = Poly.one(n)
        for p in positions:
            term = term * factors[p]
        total = total + term
    assert total.total_degrees() <= {ell}
    return total


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
