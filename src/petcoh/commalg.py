"""The package's exact algebra kernel, in integers throughout.

There is no polynomial class.  A polynomial, in the simple roots (Billey's
formula) or in Q[x_1..x_n, t] (the quadric presentation), is plain term
data: a dict {exponent tuple: int} where it is computed, and the sorted
tuple of its (exponent tuple, int) items where it must be hashed, as an
``Ideal``'s generators are.  ``Ideal`` validates its generators, so every
polynomial the Groebner engine reads has int coefficients; a value
restricted to the circle is an int times a power of t.  The one Gaussian
elimination is the fraction-free one of ``leading_minors_positive``, run
once per Cartan matrix when ``roots.CartanMatrix`` is built; the minors
route of the quadric checks and of the graded dimensions (``minor_route``)
reads that fact, and the graded ranks of the restriction model need no
elimination (``peterson.PetersonModel.image_graded_dimensions``).

Every Hilbert series is N(s)/(1 - s^2)^k with an integer polynomial N, so
univariate quantities are plain integer coefficient lists, constant term
first.  In the quadric presentation every variable has cohomological
degree 2, so every series is even in s.

No check computes a Groebner basis or a Hilbert numerator: the quadric
checks rest on the Cartan minors (``minor_route``), which make
the quadrics and t a regular sequence, and the series they report are the
closed forms that fact gives.  The Groebner engine stays here, off the run
path: the test oracles read its leading monomials, and the benchmark's
tracer wraps ``groebner_basis`` by name.

The engine is Buchberger's loop with the coprime and chain criteria,
grevlex only (``_grevlex``), on exponent tuples and fraction-free: every
element is a primitive integer polynomial with a positive leading
coefficient, and every reduction cancels each leading term by
cross-multiplication (``_reduce``).  It imports ``heapq`` when it starts,
not when this module loads, so no run loads ``heapq``; the late import
ends with ROADMAP item 15, when the engine leaves ``src/``.

This module imports nothing else from the package at run time, so every
other module can build on it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import add, le, sub

# the CartanMatrix of the annotations is roots.CartanMatrix; roots imports
# this module, and the annotations are never evaluated, so it is not imported

# ---------------------------------------------------------------------------
# exact elimination

def leading_minors_positive(rows) -> bool:
    """True iff every leading principal minor of the square integer matrix
    is positive.

    For a symmetric matrix this is positive definiteness (Sylvester's
    criterion), and then every principal minor is positive too.  A matrix
    A with a positive diagonal D such that D A is symmetric (``symmetrizer``)
    has det((D A)_S) = prod_{i in S} d_i * det(A_S) for every set S of
    rows and columns, so one run on A, once per matrix when a
    ``roots.CartanMatrix`` is built, proves D A positive definite and every
    principal minor of A positive; the minors route reads that fact
    (``zero_set_via_minors``) and runs no second elimination.

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
    square integer matrix, else None; a matrix not square is a ValueError.

    Each connected part of the graph of nonzero off-diagonal entries takes
    d = 1 at its first node and spreads by d_j = d_i a_ij / a_ji along a
    spanning tree, scaling the part to keep every d an integer; a pair
    with a_ij a_ji <= 0 has no positive d.  The values are then verified
    on every entry, which the tree alone does not decide on a cycle."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
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
    of one non-negative int per name, or a coefficient that is not an int (a
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


# ---------------------------------------------------------------------------
# Groebner bases

def _grevlex(exps) -> tuple:
    """The sort key of grevlex, the first variable largest: the larger total
    degree is larger, then the smaller last exponent, and so on."""
    return sum(exps), tuple(-e for e in reversed(exps))


def _reducer(terms) -> tuple:
    """(leading monomial, leading coefficient, tail terms) of the primitive
    form of nonzero integer terms {exponent tuple: int}, negated if need be
    so that the leading coefficient is positive."""
    lead = max(terms, key=_grevlex)
    g = gcd(*terms.values())
    if terms[lead] < 0:
        g = -g
    return (lead, terms[lead] // g,
            tuple((e, c // g) for e, c in terms.items() if e != lead))


def _reduce(work: dict, reducers) -> tuple[dict, int]:
    """(remainder, scale): the full division of the integer terms ``work``
    (consumed) by ``_reducer`` triples, fraction-free, each term reduced by
    the first reducer whose leading monomial divides it; the remainder is
    scale times the remainder over the rationals, scale a positive int.

    A term coeff * m is cancelled by lc * lead + tail by multiplying
    everything collected so far by lc / d and subtracting coeff / d *
    (m / lead) * tail, where d = gcd(coeff, lc).  The next term comes off
    a heap keyed by ``_grevlex`` negated, largest monomial first."""
    from heapq import heapify, heappop, heappush  # late: see the module docstring

    heap = [(-sum(e), e[::-1], e) for e in work]
    heapify(heap)
    remainder = {}
    scale = 1
    while heap:
        m = heappop(heap)[2]
        coeff = work.pop(m, 0)
        if not coeff:
            continue  # cancelled, or a second heap entry of a done monomial
        for lead, lc, tail in reducers:
            if all(map(le, lead, m)):
                break
        else:
            remainder[m] = coeff
            continue
        d = gcd(coeff, lc)
        a, b = lc // d, coeff // d
        if a != 1:
            scale *= a
            for e in work:
                work[e] *= a
            for e in remainder:
                remainder[e] *= a
        shift = tuple(map(sub, m, lead))
        for e, c in tail:
            e = tuple(map(add, e, shift))
            old = work.get(e)
            if old is None:
                work[e] = -b * c
                heappush(heap, (-sum(e), e[::-1], e))
            elif old != b * c:
                work[e] = old - b * c
            else:
                del work[e]
    return remainder, scale


def s_polynomial(f, g) -> dict:
    """The integer S-polynomial of two ``_reducer`` triples: lc_g/d *
    (l/lead_f) * f - lc_f/d * (l/lead_g) * g, with l the lcm of the leading
    monomials and d = gcd(lc_f, lc_g).  The leading terms cancel, so only
    the tails enter."""
    fe, fc, ftail = f
    ge, gc, gtail = g
    lcm = tuple(map(max, fe, ge))
    d = gcd(fc, gc)
    a, b = gc // d, fc // d
    shift = tuple(map(sub, lcm, fe))
    out = {tuple(map(add, e, shift)): a * c for e, c in ftail}
    shift = tuple(map(sub, lcm, ge))
    for e, c in gtail:
        e = tuple(map(add, e, shift))
        acc = out.get(e, 0) - b * c
        if acc:
            out[e] = acc
        else:
            del out[e]
    return out


def groebner_basis(ideal: Ideal) -> list[tuple]:
    """A grevlex Groebner basis, deterministic per ideal, each element a
    primitive integer polynomial with a positive leading coefficient, in
    the generator form of ``Ideal``, so that ``Ideal(ideal.var_names,
    basis)`` is the same ideal.  The basis is the loop's own elements: the
    generators, smallest leading monomial first, then each element in the
    order added; it is neither minimal nor reduced.

    The loop is Buchberger's, fraction-free.  Pairs are treated smallest
    lcm of their leading monomials first.  A pair is skipped when its
    leading monomials are coprime, or by the chain criterion: some third
    element's leading monomial divides the lcm, and neither of its pairs
    with the two is still waiting.  Otherwise its S-polynomial
    (``s_polynomial``) is reduced in full (``_reduce``), and a nonzero
    remainder joins the basis in primitive form (``_reducer``).  Every call
    computes the basis afresh."""
    from heapq import heapify, heappop, heappush  # late: see the module docstring

    basis = sorted((_reducer(dict(g)) for g in ideal.generators),
                   key=lambda r: _grevlex(r[0]))
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    queue = [(_grevlex(tuple(map(max, basis[i][0], basis[j][0]))), i, j)
             for i, j in pairs]
    heapify(queue)
    while queue:
        _, i, j = heappop(queue)
        pairs.discard((i, j))
        fi, fj = basis[i][0], basis[j][0]
        if not any(map(min, fi, fj)):
            continue  # coprime leading monomials
        lcm = tuple(map(max, fi, fj))
        if any(k != i and k != j and all(map(le, lead, lcm))
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, (lead, _, _) in enumerate(basis)):
            continue  # chain criterion
        remainder, _ = _reduce(s_polynomial(basis[i], basis[j]), basis)
        if remainder:
            new = len(basis)
            basis.append(_reducer(remainder))
            for k in range(new):
                pairs.add((k, new))
                lcm = tuple(map(max, basis[k][0], basis[new][0]))
                heappush(queue, (_grevlex(lcm), k, new))
    return [tuple(sorted(((lead, lc), *tail))) for lead, lc, tail in basis]


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

    J-check is read off J (``build_ideal_J``): the t-free part of each
    generator is checked to be theta-check_i = x_i (A x)_i, one per node.
    A common zero x with support S then has A_S x_S = 0, which a nonzero
    det(A_S) forbids.  Those minors are positive with no elimination here:
    the ``CartanMatrix`` proved its leading minors det(A_k) positive when
    it was built (``leading_minors_positive``), and with a positive
    diagonal symmetrizer D (``symmetrizer``) D A is symmetric with
    det((D A)_k) = d_1 ... d_k det(A_k) > 0, so positive definite; every
    principal minor of D A is then positive, and det((D A)_S) =
    prod_{i in S} d_i * det(A_S).  False if a generator differs or is
    missing, or if no symmetrizer exists."""
    rows = cartan.entries
    n = cartan.rank
    generators = build_ideal_J(cartan).generators
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
        if {e[:-1]: c for e, c in g if not e[-1]} != expected:
            return False
    return symmetrizer(rows) is not None


def minor_route(cartan: CartanMatrix) -> bool:
    """The Cartan-minors argument of the source paper: theta_1, ...,
    theta_n, t is a regular sequence in Q[x_1..x_n, t].

    Every generator of J is homogeneous of degree 2, and
    ``zero_set_via_minors`` shows that J-check = (theta-check_i =
    x_i (A x)_i), the t = 0 part of J, vanishes only at the origin, every
    principal minor of the Cartan matrix A being positive by the leading
    minors it proved when it was built.  Since theta_i = theta-check_i -
    2 t x_i, (J, t) = (J-check, t), so the sequence cuts Q[x, t] down to a
    finite dimension: it is a homogeneous system of parameters, and in the
    Cohen-Macaulay ring Q[x, t] a homogeneous system of parameters is a
    regular sequence (Bruns and Herzog, Cohen-Macaulay Rings, Sec. 2.1).
    The quotient by a regular sequence of forms of degrees 4, ..., 4, 2
    has the series (1 - s^4)^n (1 - s^2) / (1 - s^2)^(n + 1) = (1 + s^2)^n,
    and dropping the last element leaves (1 - s^4)^n / (1 - s^2)^(n + 1) =
    (1 + s^2)^n / (1 - s^2): the series of Q[x]/J-check and of Q[x, t]/J.
    No Groebner basis is computed and no matrix eliminated.  This is the
    one statement of the argument; the three quadric checks and
    ``graded_dims`` rest on it, and read it once per model, through
    ``peterson.PetersonModel.minor_route``."""
    return zero_set_via_minors(cartan) and all(
        {sum(e) for e, _ in g} == {2} for g in build_ideal_J(cartan).generators)
