"""The package's exact algebra kernel, in integers throughout.

There is no polynomial class.  A polynomial, in the simple roots (Billey's
formula) or in Q[x_1..x_n, t] (the quadric presentation), is plain term
data: a dict {exponent tuple: int} where it is computed, and the sorted
tuple of its (exponent tuple, int) items where it must be hashed, as an
``Ideal``'s generators are.  ``Ideal`` validates its generators, so every
polynomial the Groebner engine reads has int coefficients; a value
restricted to the circle is an int times a power of t.  The one Gaussian
elimination is the fraction-free one of ``leading_minors_positive``: the
leading minors of the Cartan matrix, and one elimination of its
symmetrization D A, which proves every principal minor positive for the
minors route of the quadric checks (``zero_set_via_minors``); the graded
ranks of the restriction model need none
(``peterson.PetersonModel.image_graded_dimensions``).

Every Hilbert series is N(s)/(1 - s^2)^k with an integer polynomial N, so
univariate quantities are plain integer coefficient lists, constant term
first.  In the quadric presentation every variable has cohomological
degree 2, so every series is even in s.

No check computes a Groebner basis or a Hilbert numerator: the quadric
checks rest on the Cartan minors (``zero_set_via_minors``), which make
the quadrics and t a regular sequence, and the series they report are the
closed forms that fact gives.  The Groebner engine stays here, off the run
path: the test oracles read its leading monomials, and the benchmark's
tracer wraps ``groebner_basis`` by name.

The Groebner engine is signature based, in the style of F5 (Faugere,
ISSAC 2002; see Eder and Faugere, J. Symbolic Comput. 80, 2017, for the
survey this follows).  Every element carries a signature m * e_i, a
monomial m times the index i of a generator, that records which multiple
of the generators it came from; signatures compare position over term, as
the pairs (i, m), so the generators are taken one at a time.  Pairs are
treated in the order of their signatures, and a pair is skipped when its
signature T = m * e_i was treated already, when the leading monomial of an
element of smaller index divides m (F5 criterion), when a signature of
index i that reduced to zero divides T (syzygy criterion), or when an
element of index i newer than the pair's own has a signature dividing T
(rewrite criterion).  The F5 criterion reads only elements of smaller
index, which are final once a pair is formed, so a pair it rejects is
never queued; for an element h of smaller index it is first tried on the
exponent parts, as gcd(lead, h) dividing the new element's signature
monomial, before the pair's lcm is formed.  The other two are tested when
the pair is treated.
Reductions keep the signature: a term may be reduced only by a multiple
of smaller signature.  For a regular sequence, such as
the Cartan quadrics, the F5 criterion sees every syzygy, so no reduction
ends at zero.  Along the way:

- every monomial is one int, its ``MonomialCode``: the order key and the
  exponents packed into fixed-width fields, so that a product is ``+``, a
  quotient ``-``, the leading monomial ``max`` and divisibility one test
  on the fields' guard bits.  ``MonomialCode`` is the package's one
  definition of its one monomial order, grevlex.  Signature monomials are
  codes too.
  Generators are packed on the way in, and only the public
  ``groebner_basis`` unpacks the basis, into the generator form of
  ``Ideal``;
- each element's leading term is computed once, when it joins the basis,
  and serves the reductions, the pair signatures and the F5 criterion;
- a memo, one per basis computation, maps each monomial met, a leading
  term of a reduction or a J-pair's signature monomial, to a position
  before which no element's leading monomial divides it; elements are only
  appended, so a later scan resumes there;
- every reduction is fraction-free: it runs in place on one dict of
  integer coefficients, divides by primitive integer elements and cancels
  each leading term by cross-multiplication (``_cancel``); the next
  leading monomial comes from a heap of negated codes.  At every step the
  integer state is a positive rational multiple of the state of the same
  division over the rationals.  ``_regular_reduce`` is the one reduction,
  and it reduces the top only: it stops at the first leading term no
  element may reduce.  A full reduction makes the same steps up to there,
  so every element keeps the index, signature and leading monomial it
  would have; only the tails differ, and no check reads them;
- the basis returned is the loop's own elements, in the order added, as
  primitive integer polynomials with positive leading coefficients.  It is
  a Groebner basis, deterministic per ideal, but neither minimal
  nor reduced: a caller reads only its leading monomials, and they
  generate the leading-term ideal;
- each ideal's basis is computed once per process, and each quadric
  ideal once per Cartan matrix.

This module imports nothing else from the package at run time, so every
other module can build on it.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd
from operator import mul

# the CartanMatrix of the annotations is roots.CartanMatrix; roots imports
# this module, and the annotations are never evaluated, so it is not imported

# ---------------------------------------------------------------------------
# packed monomials

FIELD_BITS = 16
"""Bits per field of a packed monomial; the top bit of an exponent field is
its guard bit."""

MAX_DEGREE = (1 << FIELD_BITS - 1) - 1
"""Largest total degree of a packed monomial.  Every exponent and every sum
of exponents of such a monomial fits below the guard bit of a field."""


class MonomialCode:
    """Monomials in ``nvars`` variables as ints, in the graded reverse
    lexicographic order (grevlex), the first variable largest: the
    package's one definition of its one monomial order.

    The code of an exponent vector e is ``K(e) << S | P(e)``:

    - ``P(e)`` holds e_i in the ``FIELD_BITS``-bit field i - 1, below the
      field's guard bit;
    - ``K(e)`` is the order key (f_n, ..., f_1), f_k = e_1 + ... + e_k,
      packed most significant field first: the degree f_n decides first,
      then the larger f_{n-1}, that is the smaller e_n, and so on.

    Both parts are linear in e, and no field overflows up to total degree
    ``MAX_DEGREE``.  There, the code of a product is the sum of the codes,
    the code of a quotient is their difference, and the larger monomial has
    the larger code (K is injective, so K alone decides).  l divides m iff
    subtracting P(l) from P(m) with every guard bit set clears no guard
    bit: a field's guard bit survives iff m_i >= l_i, and no field borrows
    from the next.
    """

    __slots__ = ("nvars", "shift", "mask", "guards", "weights", "_ones",
                 "_degree_shift")

    def __init__(self, nvars: int):
        width = FIELD_BITS
        self.nvars = nvars
        self.shift = width * nvars
        self.mask = (1 << self.shift) - 1
        self.guards = sum(1 << width * k + width - 1 for k in range(nvars))
        self._ones = sum(1 << width * k for k in range(nvars))
        # the degree f_n is the top field of K
        self._degree_shift = 2 * self.shift - width
        self.weights = tuple(self._from_p(1 << width * k) for k in range(nvars))

    def _from_p(self, p: int) -> int:
        """The code of the monomial whose exponent part is p.  Field k of
        p * ones is the sum of fields 0..k of p, the prefix sum f_{k+1}."""
        return (p * self._ones & self.mask) << self.shift | p

    def encode(self, exps) -> int:
        """The code of an exponent vector; ValueError beyond ``MAX_DEGREE``."""
        degree = sum(exps)
        if degree > MAX_DEGREE:
            raise ValueError(f"monomial of degree {degree} exceeds the packed "
                             f"monomial limit {MAX_DEGREE}")
        return sum(map(mul, exps, self.weights))

    def decode(self, code: int) -> tuple[int, ...]:
        width = FIELD_BITS
        field = (1 << width - 1) - 1
        p = code & self.mask
        return tuple(p >> width * k & field for k in range(self.nvars))

    def degree(self, code: int) -> int:
        return code >> self._degree_shift

    def divides(self, l: int, m: int) -> bool:
        mask, guards = self.mask, self.guards
        return ((m & mask | guards) - (l & mask)) & guards == guards

    def gcd_divides(self, a: int, b: int, m: int) -> bool:
        """True iff gcd(a, b) divides m, for codes within the limit.  The
        gcd takes the fields of b where a's are at least b's, read off the
        guard bits as in ``lcm``, and a's elsewhere; the division is
        ``divides``'s one guard-bit test."""
        mask, guards = self.mask, self.guards
        pa, pb = a & mask, b & mask
        ge = ((pa | guards) - pb & guards) >> FIELD_BITS - 1
        select = (ge << FIELD_BITS) - ge  # all ones in those fields
        low = pb & select | pa & ~select
        return ((m & mask | guards) - low) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        """The code of the lcm; ValueError if its degree exceeds
        ``MAX_DEGREE``.  The fields of a that are at least those of b are
        read off the guard bits of P(a) - P(b), as for ``divides``."""
        mask, guards = self.mask, self.guards
        pa, pb = a & mask, b & mask
        ge = ((pa | guards) - pb & guards) >> FIELD_BITS - 1
        select = (ge << FIELD_BITS) - ge  # all ones in those fields
        code = self._from_p(pa & select | pb & ~select)
        if self.degree(code) > MAX_DEGREE:
            raise ValueError(f"pair lcm of degree {self.degree(code)} exceeds "
                             f"the packed monomial limit {MAX_DEGREE}")
        return code


# ---------------------------------------------------------------------------
# exact elimination

def leading_minors_positive(rows) -> bool:
    """True iff every leading principal minor of the square integer matrix
    is positive.

    For a symmetric matrix this is positive definiteness (Sylvester's
    criterion), and then every principal minor is positive too.  A matrix
    A with a positive diagonal D such that D A is symmetric (``symmetrizer``)
    has det((D A)_S) = prod_{i in S} d_i * det(A_S) for every set S of
    rows and columns, so running this on D A proves that every principal
    minor of A is positive (``zero_set_via_minors``).  On A itself it reads
    only the leading minors, each a positive multiple of D A's.

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


def symmetrizer(rows) -> list[int] | None:
    """Positive integers d with d_i a_ij = d_j a_ji for every i, j of the
    square integer matrix, else None.

    Each connected part of the graph of nonzero off-diagonal entries takes
    d = 1 at its first node and spreads by d_j = d_i a_ij / a_ji along a
    spanning tree, scaling the part to keep every d an integer; a pair
    with a_ij a_ji <= 0 has no positive d.  The values are then verified
    on every entry, which the tree alone does not decide on a cycle."""
    n = len(rows)
    d = [0] * n
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        part = [root]
        for i in part:  # grows as the part is reached
            for j in range(n):
                a, b = rows[i][j], rows[j][i]
                if j == i or not a or d[j]:
                    continue
                if a * b <= 0:
                    return None
                num, den = d[i] * abs(a), abs(b)
                g = gcd(num, den)
                num, den = num // g, den // g
                if den != 1:
                    for k in part:
                        d[k] *= den
                d[j] = num
                part.append(j)
    if any(d[i] * rows[i][j] != d[j] * rows[j][i]
           for i in range(n) for j in range(n)):
        return None
    return d


class Ideal:
    """Nonzero generators in a named polynomial ring.

    The ring's variables are named by a tuple of strs.  Each generator is
    given as a dict {exponent tuple: int}, or as its items, and is stored as
    the sorted tuple of its (exponent tuple, int) pairs with the zero
    coefficients dropped, so that an ideal hashes.  Names that are not a
    tuple of strs, a generator that is zero, an exponent that is not a tuple
    of ``nvars`` non-negative ints, or a coefficient that is not an int (a
    bool is not): each is a ValueError.
    """

    __slots__ = ("var_names", "generators")

    def __init__(self, var_names: tuple[str, ...], generators):
        if not (type(var_names) is tuple
                and all(type(name) is str for name in var_names)):
            raise ValueError(f"variable names {var_names!r} are not a tuple of strs")
        nvars = len(var_names)
        stored = []
        for k, g in enumerate(generators, 1):
            try:
                terms = dict(g)
            except (TypeError, ValueError):
                raise ValueError(f"generator {k} is not term data: {g!r}") from None
            for e, c in terms.items():
                if not (type(e) is tuple and len(e) == nvars
                        and all(type(a) is int and a >= 0 for a in e)):
                    raise ValueError(f"generator {k}: exponent {e!r} is not a "
                                     f"tuple of {nvars} non-negative ints")
                if type(c) is not int:
                    raise ValueError(f"generator {k}: coefficient {c!r} is "
                                     f"not an int")
            if not any(terms.values()):
                raise ValueError("ideal generators must be nonzero")
            stored.append(tuple(sorted((e, c) for e, c in terms.items() if c)))
        object.__setattr__(self, "var_names", var_names)
        object.__setattr__(self, "generators", tuple(stored))

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def __eq__(self, other):
        return (isinstance(other, Ideal) and (self.var_names, self.generators)
                == (other.var_names, other.generators))

    def __hash__(self):
        return hash((self.var_names, self.generators))

    @property
    def nvars(self) -> int:
        return len(self.var_names)


def is_homogeneous(generator) -> bool:
    """True iff the (exponent tuple, coefficient) pairs of a generator, in
    the form ``Ideal`` stores, all have one total degree."""
    return len({sum(e) for e, _ in generator}) <= 1


def x_var_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1))


def _quadric_ideal(cartan: CartanMatrix) -> Ideal:
    """One quadric per node i, sum_j <alpha_i, alpha_j> x_i x_j - 2 t x_i,
    in Q[x_1..x_n, t]."""
    n = cartan.rank
    gens = []
    for i in range(1, n + 1):
        terms = {}
        for j in range(1, n + 1):
            a_ij = cartan.a(i, j)
            if not a_ij:
                continue
            exps = [0] * (n + 1)
            exps[i - 1] += 1
            exps[j - 1] += 1
            terms[tuple(exps)] = a_ij
        exps = [0] * (n + 1)
        exps[i - 1] = exps[n] = 1
        terms[tuple(exps)] = -2
        gens.append(terms)
    return Ideal(x_var_names(n) + ("t",), tuple(gens))


@lru_cache(maxsize=None)
def build_ideal_J(cartan: CartanMatrix) -> Ideal:
    """Quadric ideal of the equivariant presentation in Q[x_1..x_n, t]:
    one generator sum_j <alpha_i, alpha_j> x_i x_j - 2 t x_i per node i."""
    return _quadric_ideal(cartan)


@lru_cache(maxsize=None)
def build_ideal_Jcheck(cartan: CartanMatrix) -> Ideal:
    """The same generators with t set to zero, in Q[x_1..x_n]."""
    ideal = build_ideal_J(cartan)
    return Ideal(ideal.var_names[:-1], tuple(
        {e[:-1]: c for e, c in g if not e[-1]} for g in ideal.generators))


# ---------------------------------------------------------------------------
# Groebner bases

def _primitive(terms) -> dict:
    """The integer terms divided by their content (the gcd of all of
    them)."""
    g = gcd(*terms.values())
    return {e: c // g for e, c in terms.items()}


def _reducer(terms) -> tuple:
    """(leading code, leading coefficient, tail terms) of the primitive form
    of nonzero integer terms keyed by monomial code, negated if need be so
    that the leading coefficient is positive."""
    terms = _primitive(terms)
    lead = max(terms)
    sign = 1 if terms[lead] > 0 else -1
    return (lead, sign * terms[lead],
            tuple((e, sign * c) for e, c in terms.items() if e != lead))


def _cancel(work: dict, heap: list, m: int, coeff: int, lead: int, lc: int,
            tail) -> None:
    """Cancel the term coeff * m, just popped from ``work``, by a reducer
    lc * lead + tail with lead | m, fraction-free: multiply the work by
    lc / d and subtract coeff / d * (m / lead) * tail, where d = gcd(coeff,
    lc).  A monomial new to ``work`` goes on the heap of negated codes."""
    d = gcd(coeff, lc)
    a, b = lc // d, coeff // d
    if a != 1:
        for e in work:
            work[e] *= a
    shift = m - lead
    for e, c in tail:
        e += shift
        old = work.get(e)
        if old is None:
            work[e] = -b * c
            heappush(heap, -e)
        else:
            acc = old - b * c
            if acc:
                work[e] = acc
            else:
                del work[e]


def _first_position(m: int, elements, code: MonomialCode, memo: dict) -> int:
    """The position of the first engine element whose leading monomial
    divides m, else the number of elements.  ``memo`` maps a code to a
    position before which no leading monomial divides it; elements are only
    appended, so a scan resumes there."""
    mask, guards = code.mask, code.guards
    probe = m & mask | guards
    p = memo.get(m, 0)
    count = len(elements)
    while p < count and (probe - (elements[p][2] & mask)) & guards != guards:
        p += 1
    memo[m] = p
    return p


def _regular_reduce(work: dict, index: int, sig: int, elements,
                    code: MonomialCode, memo: dict) -> dict:
    """Fraction-free regular top-reduction of the integer terms ``work``
    (keyed by code, reduced in place) of signature sig * e_index by the
    engine's elements ``(index, signature monomial, lead, lc, tail)``;
    returns ``work``, then empty or with a leading term that no element
    may reduce, and congruent to a positive integer multiple of the input.

    A term t is reduced by the first element h whose leading monomial
    divides it and whose multiple (t / lm h) * sig(h) has a smaller
    signature, so that the signature stays sig * e_index: every element of
    a smaller index qualifies, one of the same index when its signature
    monomial times t / lm h is below sig.  The search starts at the first
    divisor ``_first_position`` finds, and each term is cancelled by
    ``_cancel``.  The reduction stops at the first leading term that no
    element may reduce and leaves the terms below it as they are.  A full
    reduction makes the same steps up to that term, so it ends at zero
    exactly when this one does and otherwise has the same leading
    monomial: only the tails differ, and no check reads a tail."""
    mask, guards = code.mask, code.guards
    count = len(elements)
    heap = [-t for t in work]
    heapify(heap)
    while heap:
        t = -heappop(heap)
        coeff = work.pop(t, 0)
        if not coeff:
            continue  # cancelled, or a second heap entry of a done monomial
        probe = t & mask | guards
        for p in range(_first_position(t, elements, code, memo), count):
            hi, hm, lead, lc, tail = elements[p]
            if ((probe - (lead & mask)) & guards == guards
                    and (hi < index or t - lead + hm < sig)):
                _cancel(work, heap, t, coeff, lead, lc, tail)
                break
        else:
            work[t] = coeff
            break
    return work


def s_polynomial(f, g, lcm_fg: int) -> dict:
    """S-polynomial of two ``_reducer`` triples whose leading monomials have
    the lcm code ``lcm_fg``, in integers:
    lc_g/d * (l/f_lead) * f - lc_f/d * (l/g_lead) * g with d =
    gcd(lc_f, lc_g).  The leading terms cancel, so only the tails enter."""
    fe, fc, ftail = f
    ge, gc, gtail = g
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    shift = lcm_fg - fe
    out = {e + shift: a * c for e, c in ftail}
    shift = lcm_fg - ge
    for e, c in gtail:
        e += shift
        acc = out.get(e, 0) - b * c
        if acc:
            out[e] = acc
        else:
            del out[e]
    return out


def groebner_basis(ideal: Ideal) -> list[tuple]:
    """A grevlex Groebner basis, deterministic per ideal: the elements the
    signature loop adds, in the order added, each a primitive integer
    polynomial with a positive leading coefficient, in the generator form
    of ``Ideal``, so that ``Ideal(ideal.var_names, basis)`` is the same
    ideal.  Their leading monomials generate the leading-term ideal, which
    is all a caller reads; the basis is neither minimal nor reduced.

    The engine is signature based.  Every element h carries a signature
    m * e_i: h is c * m * f_i, with c > 0 and f_i the i-th generator, plus
    a combination of f_1, ..., f_{i-1} and of f_i times monomials below m.
    Signatures compare position over term, as the pairs (i, m).  Generator
    i starts with signature 1 * e_i; for each pair of elements, the J-pair
    is the multiple of the one with the larger signature that reaches the
    lcm of the two leading monomials, and signatures are treated smallest
    first.  A signature T = m * e_i is skipped when

    - it was already treated;
    - the leading monomial of an element of index below i divides m (F5:
      T is the signature of a syzygy, since those elements form a Groebner
      basis of (f_1, ..., f_{i-1}));
    - a signature of index i that reduced to zero divides it (syzygy);
    - an element of index i added after the J-pair's own element has a
      signature dividing it (rewrite: the multiple of that newer element
      with signature T stands for the J-pair).

    The F5 test is made when the pair is formed, as the elements of index
    below i are final by then, and a pair that fails it is never queued;
    the others are made when it is treated.  When the new element of index
    i, signature monomial m and lead l pairs with an element h of smaller
    index, the pair's signature is (lcm(l, h) / l) * m, and h divides it
    iff gcd(l, h) divides m: per variable, the quotient adds max(l, h) - l
    to m, which reaches h iff m reaches min(l, h).  For a generator (m = 1)
    this is the coprime criterion.  So the pair is first tested on the
    exponent parts (``MonomialCode.gcd_divides``: a guard-bit minimum and
    one guard-bit divisibility test), and a pair that fails is dropped
    before its lcm is formed.  No decision moves: h lies before the first
    element of index i, so the scan for a dividing lead would drop the
    same pair.  The pre-test runs only where deg l + deg h + deg m <=
    ``MAX_DEGREE``: there the lcm and the signature are within the limit,
    so every pair it drops is one that would not have raised.

    A pair that passes every test has its S-polynomial top-reduced, only
    by multiples of smaller signature, until its leading term is
    irreducible; a nonzero result joins the basis with signature T.  A full
    reduction ends at the same leading monomial
    (``_regular_reduce``), and the criteria read only indices, signatures,
    leads and the order of the elements, so every element's (index,
    signature, lead) is that of the fully reducing engine; only the tails
    differ.  For a regular sequence, such as the Cartan quadrics, no
    reduction ends at zero.

    The engine runs on ``MonomialCode`` ints.  A generator monomial, a pair
    lcm or a J-pair signature of degree above ``MAX_DEGREE`` is a
    ValueError, raised before that pair is reduced.  Grevlex is graded, so
    every term met while treating a pair, and every tail term of the
    element it may add, has degree at most that of the pair's lcm.  A
    signature m * e_i has degree at most that of the lcm minus that of f_i
    when the generators are homogeneous, but with inhomogeneous ones a
    reduction can drop in degree below its signature, so the signature's
    own degree is checked.

    Each ideal is computed once per process; every call decodes a fresh
    list of the same polynomials.
    """
    code, elements = _groebner_basis(ideal)
    return [tuple(sorted((code.decode(e), c) for e, c in ((lead, lc), *tail)))
            for _, _, lead, lc, tail in elements]


@lru_cache(maxsize=None)
def _groebner_basis(ideal: Ideal) -> tuple[MonomialCode, tuple]:
    """(code, elements): the engine's elements ``(index, signature
    monomial, lead, lc, tail)`` as ``groebner_basis`` describes them, packed
    by ``code``."""
    code = MonomialCode(ideal.nvars)
    degree_shift = code._degree_shift
    gens = [{code.encode(e): c for e, c in g} for g in ideal.generators]
    # (index, signature monomial, lead, lc, tail), in the order treated:
    # every element of index i comes before any of index i + 1
    elements = []
    syzygies = [[] for _ in gens]  # signature monomials reduced to zero
    # J-pairs (index, signature monomial, own element, other element, lcm),
    # own holding the larger signature; generator i enters with signature
    # (i, 1), 1 being code 0, and own -1
    queue = [(i, 0, -1, -1, 0) for i in range(len(gens))]
    memo = {}  # code -> position, see ``_first_position``
    done = None  # the last signature reduced
    first = 0  # position of the first element of the current index

    while queue:
        i, m, own, other, lcm_fg = heappop(queue)
        if (i, m) == done:
            # every J-pair formed after reducing T has a larger signature,
            # so equal signatures pop one after another
            continue
        if own < 0:
            first = len(elements)
            work = gens[i]
        else:
            if (any(code.divides(s, m) for s in syzygies[i])
                    or any(code.divides(h[1], m)
                           for h in islice(elements, own + 1, None))):
                continue  # syzygy or rewrite criterion
            work = s_polynomial(elements[own][2:], elements[other][2:], lcm_fg)
        done = (i, m)
        remainder = _regular_reduce(work, i, m, elements, code, memo)
        if not remainder:
            syzygies[i].append(m)
            continue
        # kept even when singular top-reducible, that is when some
        # (lead / lm h) * sig(h) equals the signature: the rewrite criterion
        # must find this element as the newest of its signature, and
        # dropping it can lose a basis element
        lead, lc, tail = _reducer(remainder)
        new = len(elements)
        # the F5 pre-test (see ``groebner_basis``), for an h of smaller
        # index: h | (lcm / lead) * m iff gcd(lead, h) | m, decided only
        # where deg lead + deg h + deg m <= MAX_DEGREE
        room = MAX_DEGREE - code.degree(lead) - code.degree(m)
        for k, (hi, hm, hl, _, _) in enumerate(elements):
            if (k < first and hl >> degree_shift <= room
                    and code.gcd_divides(lead, hl, m)):
                continue
            lcm_fg = code.lcm(lead, hl)
            mine, theirs = (i, lcm_fg - lead + m), (hi, lcm_fg - hl + hm)
            if mine == theirs:
                continue  # the two sides cancel in the signature
            pair = ((*mine, new, k, lcm_fg) if mine > theirs
                    else (*theirs, k, new, lcm_fg))
            # (lcm / lead) * m, from codes within the limit, has degree at
            # most 2 * MAX_DEGREE < 2 ** FIELD_BITS: no field carries, so its
            # code and degree are exact
            degree = code.degree(pair[1])
            if degree > MAX_DEGREE:
                raise ValueError(f"J-pair signature of degree {degree} "
                                 f"exceeds the packed monomial limit "
                                 f"{MAX_DEGREE}")
            # the pair has index i, and the elements of smaller index are
            # final, so the F5 criterion is decided here, once
            if _first_position(pair[1], elements, code, memo) >= first:
                heappush(queue, pair)
        elements.append((i, m, lead, lc, tail))

    return code, tuple(elements)


# ---------------------------------------------------------------------------
# Hilbert series

class HilbertSeries:
    """Rational function numerator/denominator in s, canonically reduced.

    The variable s tracks cohomological degree, so with all ring variables
    of degree 2 every exponent appearing is even.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: tuple[int, ...], denominator: tuple[int, ...]):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("HilbertSeries is immutable")

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries) and (self.numerator, self.denominator)
                == (other.numerator, other.denominator))

    def __hash__(self):
        return hash((self.numerator, self.denominator))

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


def _one_minus_product(degrees) -> list[int]:
    """Coefficients of prod_d (1 - s^d) over the given positive degrees."""
    out = [1]
    for d in degrees:
        out += [0] * d
        for k in range(len(out) - 1, d - 1, -1):
            out[k] -= out[k - d]
    return out


# ---------------------------------------------------------------------------
# the Cartan-minors route

def zero_set_via_minors(cartan: CartanMatrix) -> bool:
    """J-check's zero set is the origin because every principal minor of
    the Cartan matrix A is positive.

    J-check's own generators are checked to be theta-check_i =
    x_i (A x)_i, one per node.  A common zero x with support S then has
    A_S x_S = 0, which a nonzero det(A_S) forbids.  Those minors are
    proven positive by one elimination: A has a positive diagonal
    symmetrizer D (``symmetrizer``), D A is symmetric, and Sylvester's
    criterion on its leading minors makes D A positive definite, so every
    principal minor of D A is positive, and det((D A)_S) = prod_{i in S}
    d_i * det(A_S).  False if a generator differs or is missing, or if no
    symmetrizer exists."""
    rows = cartan.entries
    n = cartan.rank
    generators = build_ideal_Jcheck(cartan).generators
    if len(generators) != n:
        return False
    for i, g in enumerate(generators):
        expected = {}
        for j, a_ij in enumerate(rows[i]):
            if a_ij:
                exps = [0] * n
                exps[i] += 1
                exps[j] += 1
                expected[tuple(exps)] = a_ij
        if dict(g) != expected:
            return False
    d = symmetrizer(rows)
    return d is not None and leading_minors_positive(
        [[d_i * a for a in row] for d_i, row in zip(d, rows)])
