"""The package's exact algebra kernel, in integers throughout.

One polynomial class and one echelon form serve every layer:

- ``Poly``, multivariate, for polynomials in the simple roots (Billey's
  formula) and in Q[x_1..x_n, t] (the quadric presentation); a value
  restricted to the circle is a ``Poly`` in the one variable t.  A
  ``Poly`` keeps the coefficients it is given, and every one the package
  builds has int coefficients;
- ``IntegerEchelon``, an incremental echelon form of primitive integer
  rows, for the graded ranks of the restriction model; positive
  definiteness (``leading_minors_positive``) runs its own fraction-free
  elimination.

Every Hilbert series is N(s)/(1 - s^2)^k with an integer polynomial N, so
univariate quantities are plain integer coefficient lists, constant term
first.

In the quadric presentation every variable has cohomological degree 2;
internally all computations run on ordinary total degree and the doubling
happens only when a Hilbert series is emitted (s -> s^2).

The Groebner engine is Buchberger's algorithm with normal pair selection
(smallest lcm first), the coprimality criterion and the chain criterion,
installed along the lines of Gebauer and Moeller (J. Symbolic Comput. 6,
1988) so that no work is repeated:

- each basis element's leading term is computed once, when it joins the
  basis, and serves the reductions, both criteria and the pair keys;
- pending pairs sit in a heap keyed by (order key of the lcm, pair); an
  lcm never changes, so the heap pops pairs in exactly the order of a
  minimum scan over all of them;
- every reduction is fraction-free: ``_reduce`` runs in place on one dict
  of integer coefficients, divides by primitive integer basis elements,
  cancels each leading term by cross-multiplication and keeps the running
  scale; the next leading monomial comes from a heap.  At every step the
  integer state is a positive rational multiple of the state of the same
  division over the rationals, so the same leading monomials are reached
  and the same pairs are treated in the same order.  The reduced basis
  comes out as primitive integer polynomials with positive leading
  coefficients; made monic, it is the rational reduced basis term for
  term.  Only its leading monomials are read downstream;
- each (ideal, order) is computed once per process, so the checks that
  need the same basis share it.

This module imports nothing else from the package at run time, so every
other module can build on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, neg, sub
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .roots import CartanMatrix

# ---------------------------------------------------------------------------
# monomial orders

def grevlex_key(exps):
    """Graded reverse lexicographic, first listed variable largest."""
    return (sum(exps), tuple(map(neg, reversed(exps))))


def grlex_key(exps):
    """Graded lexicographic, first listed variable largest."""
    return (sum(exps), exps)


MONOMIAL_ORDERS = {"grevlex": grevlex_key, "grlex": grlex_key}


def order_key(ordering: str):
    try:
        return MONOMIAL_ORDERS[ordering]
    except KeyError:
        raise ValueError(
            f"unknown monomial order {ordering!r}; expected one of "
            f"{sorted(MONOMIAL_ORDERS)}") from None


def _divides(a, b) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


def _mono_mul(a, b):
    return tuple(map(add, a, b))


def _mono_div(a, b):
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Multivariate polynomial: exponent tuple -> nonzero coefficient, kept
    as given (every polynomial the package builds has int coefficients);
    the zero polynomial has no terms."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {tuple(exps): c for exps, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        exps = tuple(1 if k == index else 0 for k in range(nvars))
        return cls(nvars, {exps: 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def leading(self, key):
        """(exponents, coefficient) of the leading term under the order key."""
        exps = max(self.terms, key=key)
        return exps, self.terms[exps]

    def total_degrees(self) -> set[int]:
        return {sum(e) for e in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.total_degrees()) <= 1

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def graded_degree(self) -> int:
        """Cohomological degree: twice the total degree."""
        return 2 * self.total_degree()


# ---------------------------------------------------------------------------
# exact elimination

class IntegerEchelon:
    """An echelon form of primitive integer rows, grown one row at a time.

    Rows are stored by pivot (leading) column, in insertion order.  A new
    row is reduced against every stored row in that order, each step a
    cross-multiplication that clears the stored row's pivot column; a
    stored row vanishes at the pivots of the rows stored before it, so one
    pass clears every pivot column.  A nonzero remainder is divided by the
    gcd of its entries and stored under its leading column.  The number of
    stored rows is the rank of everything inserted.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, row) -> bool:
        """Add a row; True iff it is independent of the rows stored so far."""
        row = list(row)
        for col, stored in self.rows.items():
            f = row[col]
            if f:
                p = stored[col]
                g = gcd(f, p)
                f, p = f // g, p // g
                row = [a * p - f * b for a, b in zip(row, stored)]
        lead = next((col for col, a in enumerate(row) if a), None)
        if lead is None:
            return False
        g = gcd(*row)
        self.rows[lead] = [a // g for a in row]
        return True


def leading_minors_positive(rows) -> bool:
    """True iff every leading principal minor of the square integer matrix
    is positive.

    By Sylvester's criterion this decides positive definiteness, also for
    (possibly non-symmetric) Cartan matrices A: a_ij = 2(alpha_i, alpha_j) /
    (alpha_j, alpha_j), so A = B D with B symmetric and D a positive
    diagonal, and the leading minors of A are positive multiples of those
    of B.

    The minors are the pivots of fraction-free Gaussian elimination without
    row exchanges (Bareiss, Math. Comp. 22, 1968): each step replaces every
    entry below the pivot row by (a * pivot - f * b) / (previous pivot),
    and Sylvester's identity makes the division exact.
    """
    m = [list(r) for r in rows]
    if any(len(r) != len(m) for r in m):
        raise ValueError("matrix must be square")
    prev = 1
    for k, top in enumerate(m):
        pivot = top[k]
        if pivot <= 0:
            return False
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(a * pivot - f * b) // prev
                           for a, b in zip(row[k + 1:], top[k + 1:])]
        prev = pivot
    return True


@dataclass(frozen=True)
class Ideal:
    """A list of nonzero generators in a named polynomial ring."""

    var_names: tuple[str, ...]
    generators: tuple[Poly, ...]

    def __post_init__(self):
        for g in self.generators:
            if not g:
                raise ValueError("ideal generators must be nonzero")
            if g.nvars != len(self.var_names):
                raise ValueError("generator variable count mismatch")

    @property
    def nvars(self) -> int:
        return len(self.var_names)


def x_var_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def _quadric_ideal(cartan: CartanMatrix, with_t: bool) -> Ideal:
    """One quadric per node i: sum_j <alpha_i, alpha_j> x_i x_j, minus
    2 t x_i when the trailing variable t is present."""
    n = cartan.rank
    nvars = n + 1 if with_t else n
    gens = []
    for i in range(1, n + 1):
        terms: dict[tuple, int] = {}
        for j in range(1, n + 1):
            a_ij = cartan.a(i, j)
            if not a_ij:
                continue
            exps = [0] * nvars
            exps[i - 1] += 1
            exps[j - 1] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + a_ij
        if with_t:
            exps = [0] * nvars
            exps[i - 1] = 1
            exps[n] = 1
            terms[tuple(exps)] = terms.get(tuple(exps), 0) - 2
        gens.append(Poly(nvars, terms))
    return Ideal(x_var_names(n) + (("t",) if with_t else ()), tuple(gens))


def build_ideal_J(cartan: CartanMatrix) -> Ideal:
    """Quadric ideal of the equivariant presentation in Q[x_1..x_n, t]:
    one generator sum_j <alpha_i, alpha_j> x_i x_j - 2 t x_i per node i."""
    return _quadric_ideal(cartan, with_t=True)


def build_ideal_Jcheck(cartan: CartanMatrix) -> Ideal:
    """The same generators with t set to zero, in Q[x_1..x_n]."""
    return _quadric_ideal(cartan, with_t=False)


# ---------------------------------------------------------------------------
# Buchberger

def _primitive(terms) -> dict:
    """The integer terms divided by their content (the gcd of all of
    them)."""
    g = gcd(*terms.values())
    return {e: c // g for e, c in terms.items()}


def _reducer(terms, key) -> tuple:
    """(leading monomial, leading coefficient, tail terms) of the primitive
    form of nonzero integer terms, negated if need be so that the leading
    coefficient is positive."""
    terms = _primitive(terms)
    lead = max(terms, key=key)
    sign = 1 if terms[lead] > 0 else -1
    return (lead, sign * terms[lead],
            tuple((e, sign * c) for e, c in terms.items() if e != lead))


def _reduce(work: dict, reducers, key) -> tuple[dict, int]:
    """Fraction-free full reduction of the integer terms ``work`` (consumed)
    by ``_reducer`` triples; returns (remainder, scale) with the remainder
    congruent to scale * work, scale a positive integer.

    The next leading monomial comes from a heap of (negated order key,
    monomial); a monomial that cancels stays in the heap and is skipped
    when popped.  A leading term c * m divisible by a reducer's lead lc * l
    is cancelled by multiplying everything collected so far, the work and
    the remainder, by lc / d and subtracting c / d * (m / l) * tail, where
    d = gcd(c, lc)."""
    def heap_key(exps):
        # the order key, (total degree, tuple of ints), negated: the
        # min-heap pops the largest monomial first
        degree, rest = key(exps)
        return (-degree, tuple(map(neg, rest)))

    heap = [(heap_key(e), e) for e in work]
    heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        exps = heappop(heap)[1]
        coeff = work.pop(exps, 0)
        if not coeff:
            continue  # cancelled, or a second heap entry of a done monomial
        for ge, gc, gtail in reducers:
            if _divides(ge, exps):
                d = gcd(coeff, gc)
                a, b = gc // d, coeff // d
                if a != 1:
                    scale *= a
                    for e in work:
                        work[e] *= a
                    for e in remainder:
                        remainder[e] *= a
                shift = _mono_div(exps, ge)
                for e, c in gtail:
                    m = _mono_mul(e, shift)
                    old = work.get(m)
                    if old is None:
                        work[m] = -b * c
                        heappush(heap, (heap_key(m), m))
                    else:
                        acc = old - b * c
                        if acc:
                            work[m] = acc
                        else:
                            del work[m]
                break
        else:
            remainder[exps] = coeff
    return remainder, scale


def s_polynomial(f, g) -> dict:
    """S-polynomial of two ``_reducer`` triples, in integers:
    lc_g/d * (l/f_lead) * f - lc_f/d * (l/g_lead) * g with l the lcm of the
    leading monomials and d = gcd(lc_f, lc_g).  The leading terms cancel,
    so only the tails enter."""
    fe, fc, ftail = f
    ge, gc, gtail = g
    lcm_fg = _mono_lcm(fe, ge)
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    shift = _mono_div(lcm_fg, fe)
    out = {_mono_mul(e, shift): a * c for e, c in ftail}
    shift = _mono_div(lcm_fg, ge)
    for e, c in gtail:
        m = _mono_mul(e, shift)
        acc = out.get(m, 0) - b * c
        if acc:
            out[m] = acc
        else:
            del out[m]
    return out


def groebner_basis(ideal: Ideal, ordering: str = "grevlex") -> list[Poly]:
    """Reduced Groebner basis, deterministic for a fixed order: each element
    a primitive integer polynomial with a positive leading coefficient (the
    monic reduced basis, cleared of its denominators).

    Pairs are treated smallest lcm first; a pair is dropped when its leading
    monomials are coprime, or when some third basis element divides the lcm
    and both sibling pairs were already treated (chain criterion).

    Each (ideal, ordering) is computed once per process; every call returns
    a fresh list of the same polynomials.
    """
    return list(_groebner_basis(ideal, ordering))


@lru_cache(maxsize=None)
def _groebner_basis(ideal: Ideal, ordering: str) -> tuple[Poly, ...]:
    # always called positionally, so that groebner_basis(I) and
    # groebner_basis(I, "grevlex") share one cache entry
    key = order_key(ordering)
    # each element as its primitive integer ``_reducer`` triple: its leading
    # term, computed once, serves the reductions, both criteria and the
    # pair keys
    basis = sorted((_reducer(g.terms, key) for g in ideal.generators),
                   key=lambda r: key(r[0]))
    # a pair's lcm never changes, so a heap of (key(lcm), pair) pops in the
    # order of min(pairs, key=(key(lcm), pair)); ``pairs`` holds the pairs
    # not yet treated, for the chain criterion
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    heap = [(key(_mono_lcm(basis[i][0], basis[j][0])), (i, j)) for i, j in pairs]
    heapify(heap)

    while heap:
        _, (i, j) = heappop(heap)
        pairs.discard((i, j))
        fe, ge = basis[i][0], basis[j][0]
        lcm_fg = _mono_lcm(fe, ge)
        if _mono_mul(fe, ge) == lcm_fg:
            continue  # coprime leading monomials
        if any(k != i and k != j and _divides(lk, lcm_fg)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (lk, _, _) in enumerate(basis)):
            continue  # chain criterion
        remainder, _ = _reduce(s_polynomial(basis[i], basis[j]), basis, key)
        if remainder:
            new = len(basis)
            basis.append(_reducer(remainder, key))
            lead = basis[new][0]
            for k in range(new):
                pairs.add((k, new))
                heappush(heap, (key(_mono_lcm(basis[k][0], lead)), (k, new)))

    return tuple(_reduce_basis(basis, key, ideal.nvars))


def _reduce_basis(basis, key, nvars) -> list[Poly]:
    """Minimalize then tail-reduce ``_reducer`` triples; output primitive
    integer Polys with a positive leading coefficient, sorted by leading
    monomial, largest first."""
    minimal = []
    for r in sorted(basis, key=lambda r: key(r[0])):
        if not any(_divides(h[0], r[0]) for h in minimal):
            minimal.append(r)
    reduced = []
    for idx, (lead, lc, tail) in enumerate(minimal):
        # no other minimal leading monomial divides this one, so only the
        # tail reduces, and the lead ends up as lc times the scale
        remainder, scale = _reduce(dict(tail), minimal[:idx] + minimal[idx + 1:], key)
        remainder[lead] = lc * scale
        reduced.append(Poly(nvars, _primitive(remainder)))
    # minimal leading monomials are distinct and ascending
    return reduced[::-1]


def leading_term_exponents(basis, ordering: str = "grevlex"):
    key = order_key(ordering)
    return [g.leading(key)[0] for g in basis]


# ---------------------------------------------------------------------------
# Hilbert series

@dataclass(frozen=True)
class HilbertSeries:
    """Rational function numerator/denominator in s, canonically reduced.

    The variable s tracks cohomological degree, so with all ring variables
    of degree 2 every exponent appearing is even.
    """

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    @classmethod
    def over_one_minus_s2(cls, numerator, power: int) -> "HilbertSeries":
        """N(s) / (1 - s^2)^power in lowest terms, for an even N given by
        its integer coefficients (constant term first).

        The gcd of an even N with (1 - s^2)^power is a power of 1 - s^2, so
        cancelling 1 - s^2 while N(1) = N(-1) = 0 reaches lowest terms.  The
        denominator keeps constant term 1 and content 1, so the pair is
        canonical and equal series have equal fields.
        """
        num = list(numerator)
        while num and not num[-1]:
            num.pop()
        if not num:
            return cls((), (1,))
        while power and not sum(num[::2]) and not sum(num[1::2]):
            # N = (1 - s^2) Q: q_k = n_k + q_{k-2}
            for k in range(2, len(num)):
                num[k] += num[k - 2]
            del num[-2:]
            power -= 1
        return cls(tuple(num), tuple(_one_minus_product([2] * power)))

    def to_json(self):
        return {
            "numerator_coeffs": list(self.numerator),
            "denominator_coeffs": list(self.denominator),
        }

    def __repr__(self):
        return (f"HilbertSeries(num={list(self.numerator)}, "
                f"den={list(self.denominator)})")


def _one_minus_product(degrees) -> list[int]:
    """Coefficients of prod_d (1 - s^d) over the given positive degrees."""
    out = [1]
    for d in degrees:
        out += [0] * d
        for k in range(len(out) - 1, d - 1, -1):
            out[k] -= out[k - d]
    return out


def _monomial_quotient_numerator(gens, nvars: int) -> list[int]:
    """Coefficients of the numerator of the Hilbert series of R/I for a
    monomial ideal I, over the internal degree-1 grading:
    F = N(s)/(1-s)^nvars.

    Recursion: pivot on a variable x occurring in a mixed generator, using
    N(I) = N(I + (x)) + s * N(I : x); base cases are pure-power ideals.
    """
    gens = _minimalize(gens)
    if any(sum(g) == 0 for g in gens):
        return []  # ideal contains 1
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        return _one_minus_product(sum(g) for g in gens)
    counts = [0] * nvars
    for g in mixed:
        for v in range(nvars):
            if g[v]:
                counts[v] += 1
    pivot_var = counts.index(max(counts))
    pivot = tuple(1 if v == pivot_var else 0 for v in range(nvars))
    plus = gens + [pivot]
    colon = [tuple(max(e - p, 0) for e, p in zip(g, pivot)) for g in gens]
    out = _monomial_quotient_numerator(plus, nvars)
    n_colon = _monomial_quotient_numerator(colon, nvars)
    out += [0] * (len(n_colon) + 1 - len(out))
    for k, c in enumerate(n_colon, 1):
        out[k] += c
    return out


def _minimalize(gens):
    out = []
    for g in sorted(set(gens), key=lambda e: (sum(e), e)):
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return out


def hilbert_series_of_quotient(ideal: Ideal, ordering: str = "grevlex") -> HilbertSeries:
    """Hilbert series of the quotient by the ideal, all variables degree 2.

    Computed from the leading-term ideal of a Groebner basis; the result is
    order-independent, which the tests assert by recomputing under grlex.
    """
    basis = groebner_basis(ideal, ordering)
    lead = leading_term_exponents(basis, ordering)
    numer = _monomial_quotient_numerator(lead, ideal.nvars)
    # substitute s -> s^2 under the denominator (1 - s^2)^nvars
    numer = [c for coeff in numer for c in (coeff, 0)]
    return HilbertSeries.over_one_minus_s2(numer, ideal.nvars)


# ---------------------------------------------------------------------------
# regular sequences and zero sets

def is_regular_sequence(var_names, polys, ordering: str = "grevlex"):
    """Hilbert-series criterion: the sequence is regular iff the quotient
    series equals F(R) * prod_k (1 - s^(deg theta_k)).

    Returns (flag, certificate) where the certificate carries both series.
    """
    var_names = tuple(var_names)
    for p in polys:
        if not p.is_homogeneous() or p.total_degree() < 1:
            raise ValueError("regular-sequence input must be homogeneous of "
                             "positive degree")
    ideal = Ideal(var_names, tuple(polys))
    actual = hilbert_series_of_quotient(ideal, ordering)
    degrees = [p.graded_degree() for p in polys]
    expected = HilbertSeries.over_one_minus_s2(_one_minus_product(degrees),
                                               len(var_names))
    flag = actual == expected
    certificate = {
        "computed_series": actual.to_json(),
        "expected_series": expected.to_json(),
        "degrees": degrees,
    }
    return flag, certificate


def zero_set_is_origin(ideal: Ideal, ordering: str = "grevlex") -> bool:
    """For a homogeneous ideal: the affine zero set is {0} iff the quotient
    is finite dimensional, i.e. the leading-term ideal contains a pure power
    of every variable."""
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise ValueError("zero-set criterion requires homogeneous generators")
    basis = groebner_basis(ideal, ordering)
    lead = leading_term_exponents(basis, ordering)
    for v in range(ideal.nvars):
        if not any(e[v] and sum(e) == e[v] for e in lead):
            return False
    return True


def zero_set_via_minors(cartan: CartanMatrix) -> bool:
    """Independent oracle: every principal submatrix of the Cartan matrix is
    positive definite, so the quadric system forces the origin."""
    n = cartan.rank
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[cartan.entries[r][c] for c in idx] for r in idx]
        if idx and not leading_minors_positive(sub):
            return False
    return True
