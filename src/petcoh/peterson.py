"""The fixed-point restriction model of the circle-equivariant cohomology
of a Peterson variety.

The circle fixed points are indexed by subsets K of the Dynkin nodes, each
contributing the longest element w_K of its parabolic subgroup.  The
classes p_v are restrictions of equivariant Schubert classes to each w_K,
with every simple root sent to t; every such value is an integer multiple
of t^l(v), and ``billey.restricted_rows`` computes those integers directly.

The ring itself is represented purely by these values (the restriction map
to the fixed points is injective), and the model keeps one row of ints per
class: row K holds the integers c_L with p_{v_K}(w_L) = c_L t^|K| at
every fixed point L, both K and L indexed by bitmask alone (node i is bit
i - 1).  The rows are built together on first use, in one walk of the
masks that grows each w_K from w_{K - m}, m = max K, carrying the heights
of the roots w(alpha_b) and no action matrix.  Giambelli's reduced-word
counts of the v_K are read off the same descent steps (J, J - b) of the
v_J that the walk runs over, computed once per model.  Every identity
checked below is homogeneous in t, so it is compared at t = 1, pointwise
on the rows, in integers, rational coefficients cleared of their
denominators.

The rows are the model's one table.  Monk's rule (``_expansion_failures``)
and Giambelli's formula read them, the latter one step K - m -> K at a
time, m = max K, with no product b_K = prod_{i in K} p_{s_i} stored.  The
graded dimensions read only the n simple rows, and the quadrics on them.
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress, repeat
from math import comb, lcm
from operator import add, mul, or_

from . import billey, commalg
from .billey import restricted_rows
from .commalg import build_ideal_J, is_homogeneous
from .errors import IntegrityError
from .report import CheckRecord, ratio
from .roots import CartanMatrix
from .weyl import WeylGroup


def _expansion_failures(table, support, k, covers, simple) -> list[int]:
    """The positions in ``simple`` whose Monk expansion of row k fails.

    Drellich's Monk formula (``monk_failures``) on the rows r = p_{v_K}
    (r_k[L] the class at the fixed point L) and a simple row p (p_{s_i}),
    over the covers J of k (``covers``), all indexed alike (by mask):

        p r_k = p[k] r_k + sum_J c_J r_J,  c_J = num_J / den_J >= 0,

    num_J = (p[J] - p[k]) r_k[J] and den_J = r_J[J].  The identity is
    multiplied by the lcm D of the den_J and compared in integers at the
    fixed points where r_k or some r_J is nonzero (``support``, per row):
    every term has one of them as a factor, so elsewhere both sides are 0.
    All but p is read once per k: the den_J, D, the points and, per J with
    r_k[J] != 0, r_J, r_k[J] den_J and D r_k[J] / den_J.  A zero den_J
    raises ``ZeroDivisionError`` with the first such J."""
    row = table[k]
    diagonals = [table[j][j] for j in covers]
    D = lcm(*diagonals)
    if not D:
        raise ZeroDivisionError(covers[diagonals.index(0)])
    points = sorted(support[k].union(*map(support.__getitem__, covers)))
    terms = [(j, table[j], row[j] * den, D // den * row[j])
             for j, den in zip(covers, diagonals) if row[j]]
    failing = []
    for position, p in enumerate(simple):
        base = p[k]
        residual = [D * (p[L] - base) * row[L] for L in points]
        for j, r_J, sign, scale in terms:
            step = p[j] - base
            if step * sign < 0:  # num_J den_J < 0
                break
            if step:
                m = scale * step
                residual = [x - m * r_J[L] for x, L in zip(residual, points)]
        else:
            if not any(residual):
                continue
        failing.append(position)
    return failing


def _evaluate(generator, rows) -> tuple[int, ...]:
    """The (exponent tuple, int) pairs of a generator at every fixed point,
    variable v taking the values ``rows[v]``; the terms are summed lazily,
    in one pass at the end."""
    total = repeat(0, len(rows[0]))
    for exps, c in generator:
        factors = chain.from_iterable(repeat(rows[v], e)
                                      for v, e in enumerate(exps) if e)
        total = map(add, total, reduce(partial(map, mul), factors, repeat(c)))
    return tuple(total)


def nodes_of(mask: int) -> tuple[int, ...]:
    """The nodes of a node-set mask in node order, node i as bit i - 1."""
    return tuple(i for i in range(1, mask.bit_length() + 1) if mask >> i - 1 & 1)


def _by_size(mask: int) -> tuple[int, int]:
    """The (size, bitmask) key of a node-set mask: the order of the reports."""
    return mask.bit_count(), mask


def subsets_by_size(n: int):
    """All subsets of {1..n} as sorted tuples, ordered by (size, bitmask)."""
    return [nodes_of(m) for m in sorted(range(1 << n), key=_by_size)]


class PetersonModel:
    """Restriction model for one (semisimple) Lie type.

    A node set is indexed by its bitmask, node i being bit i - 1;
    ``subsets`` lists them in (size, bitmask) order, the order of the
    reports, in which the basis matrix is upper triangular.  Construction
    computes nothing: the Weyl group (unless one is passed in, which must
    be of the same Cartan matrix), the subsets with their bitmasks, the
    descent steps of the v_J, the w_K and the rows of the p_{v_J} (in one
    walk), the word counts, row supports, quadric rows and the minors
    route are each built once per model, when a check first reads them.
    The steps and rows walk on root heights from the Cartan matrix, so no
    check reads the group and a run builds none, and a quadric run reads
    the route alone.  The memo dies with the model, so no cache outlives a
    run.
    """

    def __init__(self, cartan: CartanMatrix, group: WeylGroup | None = None):
        if group is not None:
            if group.cartan != cartan:
                raise ValueError(f"group is of type {group.cartan.type_name()}, "
                                 f"not {cartan.type_name()}")
            self.group = group
        self.cartan = cartan

    @cached_property
    def group(self) -> WeylGroup:
        """The Weyl group of the Cartan matrix, built on first read."""
        return WeylGroup(self.cartan)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @cached_property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        """The node sets as sorted tuples, in the order of the reports."""
        return tuple(subsets_by_size(self.rank))

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """The bitmasks of ``subsets``, in their order."""
        return tuple(sum(1 << i - 1 for i in K) for K in self.subsets)

    @cached_property
    def _bits(self) -> dict[int, int]:
        """Per node i, its bit 1 << i - 1; a node outside the type has none."""
        return {i: 1 << i - 1 for i in self.cartan.nodes()}

    def _mask(self, K) -> int:
        """The bitmask of the node set K; a node outside the type raises
        ``KeyError``."""
        return reduce(or_, map(self._bits.__getitem__, K), 0)

    @cached_property
    def minor_route(self) -> bool:
        """``commalg.minor_route`` on the model's Cartan matrix, which the
        three quadric checks and the upper bound of ``graded_dims`` read."""
        return commalg.minor_route(self.cartan)

    def type_name(self) -> str:
        return self.cartan.type_name()

    def one(self) -> tuple[int, ...]:
        """The row of the class 1, of degree 0."""
        return (1,) * (1 << self.rank)

    @cached_property
    def _steps(self) -> dict[int, list[tuple[int, int]]]:
        """The descent steps (J, J - b) of the v_J by subset mask, read off
        the heights of the v_J (``billey.subset_steps``); the rows and the
        word counts read them."""
        return billey.subset_steps(self.cartan)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """Row K, column L: p_{v_K}(w_L) / t^|K|, K and L by mask; one walk
        of the masks grows each w_L from w_{L - m} on root heights over the
        descent steps (``billey.restricted_rows``)."""
        return restricted_rows(self.cartan, self._steps)

    @cached_property
    def _word_counts(self) -> list[int]:
        """Per subset mask J, the number of reduced words of v_J: 1 for the
        empty J, else the sum of the counts of J - b over J's descent
        steps: a reduced word of v_J ends in a descent b, and the rest is a
        reduced word of v_J s_b = v_{J - b}.  Each step has J - b < J, so the
        steps in increasing order of J read only finished counts.  Every
        counted path takes |J| descents, so a zero count for a nonempty J
        means l(v_J) < |J|."""
        counts = [1] + [0] * ((1 << self.rank) - 1)
        for J, lower in sorted(chain.from_iterable(self._steps.values())):
            counts[J] += counts[lower]
        return counts

    def subset_class(self, K) -> tuple[int, ...]:
        """The row of p_{v_K}, by mask, of degree |K|, for the ascending
        product v_K of the reflections in K; a node outside the type raises
        ``KeyError``."""
        return self._rows[self._mask(K)]

    def simple_class(self, i: int) -> tuple[int, ...]:
        """The row of p_{s_i}, of degree 1."""
        return self._rows[self._bits[i]]

    def second_word_failures(self) -> list[tuple[int, ...]]:
        """The fixed points L, as node sets in mask order, whose column of
        the rows the recursion along a second reduced word of w_L does not
        reproduce (``billey.second_word_failures``)."""
        return [nodes_of(L) for L in billey.second_word_failures(
            self.cartan, self._steps, self._rows)]

    @cached_property
    def _row_support(self) -> tuple[frozenset[int], ...]:
        """Per row of ``_rows``, the masks of its nonzero fixed points."""
        everywhere = range(1 << self.rank)
        return tuple(frozenset(compress(everywhere, row)) for row in self._rows)

    # -- Monk rule -------------------------------------------------------

    def monk_coefficient(self, i: int, K, J) -> tuple[int, int]:
        """Structure constant of p_{s_i} p_{v_K} on p_{v_J} for a cover
        K subset J, |J| = |K| + 1, as the integer pair (num, den).

        Computed as (p_{s_i}(w_J) - p_{s_i}(w_K)) p_{v_K}(w_J) / p_{v_J}(w_J).
        Numerator and denominator are both multiples of t^|J|; their
        coefficients are returned, unreduced, and a zero denominator is a
        pipeline bug.  ``monk_failures`` decides the identities in integers;
        the ``monk`` check reads this only for its Cartan cross-check.
        """
        k, j = self._mask(K), self._mask(J)
        if k & ~j or j.bit_count() != k.bit_count() + 1:
            raise ValueError("expected a cover: K subset of J with |J| = |K|+1")
        p_i = self.simple_class(i)
        denominator = self._rows[j][j]
        if not denominator:
            raise IntegrityError(f"Monk division by zero for i={i}, "
                                 f"K={nodes_of(k)}, J={nodes_of(j)}")
        return (p_i[j] - p_i[k]) * self._rows[k][j], denominator

    def monk_failures(self) -> list[tuple[int, tuple[int, ...]]]:
        """The (i, K) whose Monk identity fails, for i in node order and
        then K in subset order: Monk's rule (``_expansion_failures``) on the
        rows, the n identities of one K together over its covers K + j, j
        in node order.  D does not depend on i, so a zero den_J is an
        ``IntegrityError`` for the first K that has one and the first
        node, the first identity that divides by it."""
        nodes, bits = self.cartan.nodes(), self._bits.values()
        simple = [self.simple_class(i) for i in nodes]
        failing = [[] for _ in nodes]  # per node, its failing masks
        for K in self._masks:
            covers = [K | bit for bit in bits if not K & bit]
            try:
                for p in _expansion_failures(self._rows, self._row_support,
                                             K, covers, simple):
                    failing[p].append(K)
            except ZeroDivisionError as zero:
                raise IntegrityError(
                    f"Monk division by zero for i={nodes[0]}, "
                    f"K={nodes_of(K)}, J={nodes_of(zero.args[0])}") from None
        return [(i, nodes_of(K)) for i, Ks in zip(nodes, failing) for K in Ks]

    # -- Giambelli rule ----------------------------------------------------

    def giambelli_holds(self, K) -> tuple[int, bool]:
        """The number of reduced words of v_K, for a nonempty K, and
        whether its step from J = K - m, m = max K, holds on the rows:

            |K| #words(v_J) p_{v_K} = #words(v_K) p_{v_J} p_{s_m},

        pointwise, with p_{v_J} taken as 1 (not read off the row of ()) for
        an empty J, at the fixed points where either side can be nonzero.
        As every count is positive, the steps of all nonempty K hold iff,
        by induction on |K|, Giambelli's (|K|!/#words(v_K)) p_{v_K} = b_K =
        prod_{i in K} p_{s_i} holds for every nonempty K; no b_K is
        built.  It holds for a disconnected K
        too, as the product of the formulas of its connected components
        (``cli._check_giambelli`` gives the argument).  The counts are read
        off the descent steps of the v_J (``_word_counts``); a zero count
        for K is an ``IntegrityError``, and an empty K a ``ValueError``."""
        k = self._mask(K)
        if not k:
            raise ValueError("giambelli_holds needs a nonempty K, got K = ()")
        n_words = self._word_counts[k]
        if not n_words:
            raise IntegrityError(f"v_K for K = {nodes_of(k)} is not reduced")
        m = 1 << k.bit_length() - 1
        j = k ^ m
        rows, support = self._rows, self._row_support
        row_K, row_J, row_m = rows[k], rows[j] if j else self.one(), rows[m]
        scale = k.bit_count() * self._word_counts[j]
        # the left side is 0 off row K's points, the right side off those
        # of row J or of row m; for an empty J, m is k
        points = support[k] | support[j] & support[m]
        return n_words, all(scale * row_K[L] == n_words * row_J[L] * row_m[L]
                            for L in points)

    # -- module basis -------------------------------------------------------

    def verify_basis_triangular(self) -> CheckRecord:
        """Upper triangularity in (size, bitmask) order with nonzero
        diagonal, plus the support condition p_{v_K}(w_J) = 0 whenever K
        is not contained in J, read off the bitmasks: K is in J iff
        K & ~J is 0; both read the nonzero points of each row."""
        rows, support = self._rows, self._row_support
        ok_support = not any(K & ~L for K, points in enumerate(support)
                             for L in points)
        # K in L puts L at or after K in (size, bitmask) order, so only
        # rows that fail the support condition are read point by point
        ok_triangular = ok_support or not any(
            points and min(map(_by_size, points)) < _by_size(K)
            for K, points in enumerate(support))
        ok_diagonal = all(row[K] for K, row in enumerate(rows))
        return CheckRecord(
            check="basis",
            lie_type=self.type_name(),
            passed=ok_support and ok_triangular and ok_diagonal,
            parameters={"size": len(self.subsets)},
            witnesses={
                "upper_triangular": ok_triangular,
                "support_condition": ok_support,
                "diagonal_nonzero": ok_diagonal,
                # c * t^|K| as "num/den" coefficients of t^0, t^1, ...
                "diagonal": [[ratio(0, 1)] * len(K) + [ratio(rows[L][L], 1)]
                             if rows[L][L] else []
                             for K, L in zip(self.subsets, self._masks)],
            },
        )

    # -- quadratic relations -------------------------------------------------

    @cached_property
    def quadric_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per node i, the row of the generator theta_i of
        ``commalg.build_ideal_J``, the ideal the ``hilbert`` check reads,
        under x_j -> p_{s_j} and t -> t.  Every theta_i is homogeneous of
        degree 2 and every simple row holds values over t, so the row is
        theta_i evaluated on the simple rows with t -> 1: its values over
        t^2.  A theta_i that is not homogeneous, where t -> 1 would mix
        degrees, is an ``IntegrityError``.  Evaluated once per model, for
        ``quadratic`` and the upper bound of ``graded_dims``."""
        thetas = build_ideal_J(self.cartan).generators
        if not all(map(is_homogeneous, thetas)):
            raise IntegrityError("a quadric generator is not homogeneous")
        values = [self.simple_class(i) for i in self.cartan.nodes()]
        values.append(self.one())  # t, the last variable
        return tuple(_evaluate(theta, values) for theta in thetas)

    def verify_quadratic_relations(self) -> CheckRecord:
        """x_i -> p_{s_i}, t -> t is well defined on Q[x, t]/J iff every
        generator theta_i of J maps to zero: ``failing_rows`` lists the
        nodes i whose theta_i does not (``quadric_rows``)."""
        failing = [i for i, row in enumerate(self.quadric_rows, 1)
                   if any(row)]
        return CheckRecord(
            check="quadratic",
            lie_type=self.type_name(),
            passed=not failing,
            parameters={"relations": self.rank},
            witnesses={"failing_rows": failing},
        )

    # -- graded dimensions -----------------------------------------------

    def image_graded_dimensions(self, cutoff_degree: int,
                                failure: dict | None = None) -> list[int]:
        """Dimension of the span of the degree-2d monomials in
        {t, p_{s_1}..p_{s_n}}, evaluated as fixed-point tuples, for
        2d = 0, 2, ..., cutoff_degree, proven from the n simple rows
        without elimination.

        Every generator is a class of t-degree 1, so a degree-d monomial
        evaluates at each fixed point to (integer) * t^d, and at t = 1 the
        degree-d span V_d is the span of the p-monomials of degree at most
        d.  The argument, degree by degree:

        - *Lower bound.*  If every p_{s_i} vanishes at the w_L with i not
          in L (checked once, on the simple rows), then
          b_S = prod_{i in S} p_{s_i} vanishes off the supersets of S.  In
          the (size, bitmask) order the matrix b_S(w_L) is then upper
          triangular with diagonal b_S(w_S) = prod_{i in S} p_{s_i}(w_S),
          so once every diagonal with |S| <= d is nonzero (checked per
          degree), the b_S with |S| <= d are independent in V_d.
        - *Upper bound.*  V_1 is spanned by 1 and the n simple rows.  From
          d = 2 on, the quadrics do the work: when the Cartan minors make
          theta_1, ..., theta_n, t a regular sequence (``minor_route``),
          (Q[x, t]/J)_{2d} has the dimension sum_{k <= d} C(n, k), and
          when every theta_i vanishes on the simple rows
          (``quadric_rows``), x_i -> p_{s_i}, t -> t maps it onto V_d.
          Both are checked once, at d = 2, after its diagonals.

        When both bounds hold at degree d, its dimension is
        sum_{k <= d} C(n, k); the list stops at the first degree that fails,
        and ``failure``, if given, receives the witness: the first simple
        entry off the supersets ({"kind": "support", "i", "L"}), a zero
        diagonal ({"kind": "diagonal", "S"}), a failing minors route
        ({"kind": "minors", "degree": 4}) or the first node whose quadric
        does not vanish on the simple rows ({"kind": "quadric",
        "degree": 4, "i"}).
        """
        if cutoff_degree < 0 or cutoff_degree % 2:
            raise ValueError("cutoff degree must be even and non-negative")
        simple = [self.simple_class(i) for i in self.cartan.nodes()]
        dims = [1]
        for d in range(1, cutoff_degree // 2 + 1):
            witness = self._support_failure() if d == 1 else None
            witness = witness or self._diagonal_failure(d, dims[-1], simple)
            if d == 2:
                witness = witness or self._upper_bound_failure()
            if witness:
                if failure is not None:
                    failure.update(witness)
                break
            dims.append(dims[-1] + comb(self.rank, d))
        return dims

    def _support_failure(self) -> dict | None:
        """The first simple-row entry p_{s_i}(w_L) != 0 with i not in L,
        for i in node order and then L in (size, bitmask) order."""
        for i, bit in self._bits.items():
            row = self._rows[bit]
            for L in self._masks:
                if row[L] and not L & bit:
                    return {"kind": "support", "i": i, "L": list(nodes_of(L))}
        return None

    def _upper_bound_failure(self) -> dict | None:
        """A failing minors route, else the first node i whose theta_i
        does not vanish on the simple rows."""
        if not self.minor_route:
            return {"kind": "minors", "degree": 4}
        for i, row in enumerate(self.quadric_rows, 1):
            if any(row):
                return {"kind": "quadric", "degree": 4, "i": i}
        return None

    def _diagonal_failure(self, d: int, start: int, simple) -> dict | None:
        """The first zero diagonal b_S(w_S) = prod_{i in S} p_{s_i}(w_S)
        with |S| = d, on the simple rows ``simple``; subsets of size d
        start at ``start``."""
        for k in range(start, start + comb(self.rank, d)):
            S, L = self.subsets[k], self._masks[k]
            if not all(simple[i - 1][L] for i in S):
                return {"kind": "diagonal", "S": list(S)}
        return None

    def verify_graded_dimensions(self) -> CheckRecord:
        """Compare the proven dimensions with the coefficients of the
        closed-form series (1+s^2)^n / (1-s^2): partial sums of binomials.
        A failure lists the degrees proven before it and its witness.  The
        degrees run through max(12, 2n), as the series is constant from 2n
        on; the floor keeps the degrees 0..12 of ``perfbench/reference.json``."""
        cutoff_degree = max(12, 2 * self.rank)
        failure: dict = {}
        dims = self.image_graded_dimensions(cutoff_degree, failure)
        expected = list(accumulate(
            comb(self.rank, k) for k in range(cutoff_degree // 2 + 1)))
        witnesses = {"computed": dims, "expected": expected}
        if failure:
            witnesses["failure"] = failure
        return CheckRecord(
            check="graded_dims",
            lie_type=self.type_name(),
            passed=dims == expected,
            parameters={"cutoff_degree": cutoff_degree},
            witnesses=witnesses,
        )
