"""The fixed-point restriction model of the circle-equivariant cohomology
of a Peterson variety.

The circle fixed points are indexed by subsets K of the Dynkin nodes, each
contributing the longest element w_K of its parabolic subgroup.  The
classes p_v are restrictions of equivariant Schubert classes to each w_K,
with every simple root sent to t; every such value is an integer multiple
of t^l(v), and ``billey.restricted_rows`` computes those integers directly.

The ring itself is represented purely by these values (the restriction map
to the fixed points is injective), and the model keeps one row of ints per
class: row k holds the integers c_L with p_{v_K}(w_L) = c_L t^|K|, for
K = ``subsets[k]`` and every fixed point L.  The rows are built together on
first use, in one walk of the subset lattice that grows each w_K from
w_{K - m}, m = max K, on subset bitmasks.  Giambelli's reduced-word counts
of the v_K are read off the same descent steps (J, J - b) of the v_J that
the walk runs over, computed once per model.  Every identity checked below
is homogeneous in t, so it is compared at t = 1, pointwise on the rows.
The Monk and Giambelli identities have rational coefficients;
each is computed on the rows with its denominators cleared, so the
comparison stays in the integers.  The Monk identities are evaluated
together per K and return the failing (i, K), a Giambelli identity
returns a bool: the ``monk`` and ``giambelli`` checks in ``cli`` build the
one record of each check.

Beside the rows, the model keeps one product table, built on first use
with one row product per subset: row k holds b_S = prod_{i in S} p_{s_i}
at every fixed point, for S = ``subsets[k]``.  Giambelli's formula reads
b_K off it, and the graded dimensions are proven on it without
elimination (``image_graded_dimensions``).
"""

from __future__ import annotations

from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress, repeat
from math import comb, factorial, lcm
from operator import add, mul

from . import billey
from .billey import restricted_rows
from .commalg import build_ideal_J, is_homogeneous
from .errors import IntegrityError
from .report import CheckRecord, ratio
from .roots import CartanMatrix
from .weyl import WeylGroup


def _row_product(rows) -> tuple[int, ...]:
    """The pointwise product of one or more rows."""
    return tuple(reduce(partial(map, mul), rows))


def _cleared_identity(p_i, rows, k, covers, nums, diagonals, D, points) -> bool:
    """True iff p_i r_k = p_i[k] r_k + sum_J (num_J / den_J) r_J at every
    index in ``points``, for the rows r = ``rows``, J over the indices
    ``covers`` and den_J over ``diagonals``.  Compared in integers as
    D (p_i - p_i[k]) r_k = sum_J (D / den_J) num_J r_J, for D a common
    multiple of the den_J."""
    row, base = rows[k], p_i[k]
    residual = [D * (p_i[L] - base) * row[L] for L in points]
    for j, num, den in zip(covers, nums, diagonals):
        if num:
            r_J, m = rows[j], D // den * num
            residual = [x - m * r_J[L] for x, L in zip(residual, points)]
    return not any(residual)


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


def subsets_by_size(n: int):
    """All subsets of {1..n} as sorted tuples, ordered by (size, bitmask)."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in masks]


class PetersonModel:
    """Restriction model for one (semisimple) Lie type.

    Fixed points are enumerated by subsets of the node set, ordered by
    (size, bitmask), which makes the basis matrix literally upper
    triangular.  Construction computes nothing: the descent steps of the
    v_J, the fixed points w_K and the rows of the classes p_{v_J} are built
    on first use, the w_K and the rows together in one walk.
    """

    def __init__(self, cartan: CartanMatrix, group: WeylGroup | None = None):
        if group is not None and group.cartan != cartan:
            raise ValueError(f"group is of type {group.cartan.type_name()}, "
                             f"not {cartan.type_name()}")
        self.cartan = cartan
        self.group = group or WeylGroup(cartan)
        self.subsets = tuple(subsets_by_size(cartan.rank))
        self._subset_index = {K: i for i, K in enumerate(self.subsets)}
        # node i is bit i - 1; _position[mask] is the subset index of mask
        self._masks = tuple(sum(1 << i - 1 for i in K) for K in self.subsets)
        self._position = [0] * len(self.subsets)
        for k, mask in enumerate(self._masks):
            self._position[mask] = k

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def type_name(self) -> str:
        return self.cartan.type_name()

    def subset_index(self, K) -> int:
        return self._subset_index[tuple(sorted(set(K)))]

    def one(self) -> tuple[int, ...]:
        """The row of the class 1, of degree 0."""
        return (1,) * len(self.subsets)

    @cached_property
    def _steps(self) -> dict[int, list[tuple[int, int]]]:
        """The descent steps (J, J - b) of the v_J by subset mask
        (``billey.subset_steps``), read by the rows and the word counts."""
        return billey.subset_steps(self.group)

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """Row k: p_{v_K}(w_L) / t^|K| at every fixed point L, for
        K = subsets[k]; one walk of the subset lattice grows each w_L from
        w_{L - m} over the descent steps (``billey.restricted_rows``)."""
        return restricted_rows(self.group, self.subsets, self._steps)

    @cached_property
    def _word_counts(self) -> list[int]:
        """Per subset mask J, the number of reduced words of v_J: 1 for the
        empty J, else the sum of the counts of J - b over J's descent
        steps.  This is ``count_reduced_words``'s recursion, run on the v_J
        alone since v_J s_b = v_{J - b}; each step has J - b < J, so the
        steps in increasing order of J read only finished counts.  Every
        counted path takes |J| descents, so a zero count for a nonempty J
        means l(v_J) < |J|."""
        counts = [1] + [0] * (len(self.subsets) - 1)
        for J, lower in sorted(chain.from_iterable(self._steps.values())):
            counts[J] += counts[lower]
        return counts

    def subset_class(self, K) -> tuple[int, ...]:
        """The row of p_{v_K}, of degree |K|, for the ascending product v_K
        of the reflections in K."""
        return self._rows[self.subset_index(K)]

    def simple_class(self, i: int) -> tuple[int, ...]:
        """The row of p_{s_i}, of degree 1."""
        return self.subset_class((i,))

    @cached_property
    def _covers(self) -> tuple[tuple[int, ...], ...]:
        """Per subset index k, the subset indices of the covers K + j of
        K = subsets[k], for the nodes j not in K in node order."""
        position = self._position
        return tuple(tuple(position[mask | 1 << b] for b in range(self.rank)
                           if not mask >> b & 1) for mask in self._masks)

    @cached_property
    def _products(self) -> tuple[tuple[int, ...], ...]:
        """Row k: b_S at every fixed point, for S = subsets[k], where
        b_S = prod_{i in S} p_{s_i} and b_{} = 1; one row product per
        subset, b_S = b_{S - m} p_{s_m} for the largest node m of S."""
        rows, position = self._rows, self._position
        products = [self.one()]
        for mask in self._masks[1:]:
            top = 1 << mask.bit_length() - 1
            products.append(tuple(map(mul, products[position[mask ^ top]],
                                      rows[position[top]])))
        return tuple(products)

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
        K = tuple(sorted(set(K)))
        J = tuple(sorted(set(J)))
        if not (set(K) < set(J) and len(J) == len(K) + 1):
            raise ValueError("expected a cover: K subset of J with |J| = |K|+1")
        k, j = self._subset_index[K], self._subset_index[J]
        p_i = self.simple_class(i)
        denominator = self._rows[j][j]
        if not denominator:
            raise IntegrityError(
                f"Monk division by zero for i={i}, K={K}, J={J}")
        return (p_i[j] - p_i[k]) * self._rows[k][j], denominator

    def monk_failures(self) -> list[tuple[int, tuple[int, ...]]]:
        """The (i, K) whose Monk identity fails, for i in node order and
        then K in subset order: p_{s_i} p_{v_K} = p_{s_i}(w_K) p_{v_K} +
        sum c_J p_{v_J} over the covers J of K, with every c_J nonnegative,
        in integers.  c_J = num_J / den_J with num_J = (p_{s_i}(w_J) -
        p_{s_i}(w_K)) p_{v_K}(w_J) and den_J = p_{v_J}(w_J), so c_J < 0 iff
        num_J den_J < 0.  The identity is multiplied by the lcm D of the
        den_J and compared on the rows at the fixed points where p_{v_K} or
        some cover p_{v_J} is nonzero, read off the rows: every term has one
        of them as a factor, so elsewhere both sides are 0.

        The n identities of one K share everything but p_{s_i}: the covers,
        the den_J and D, the fixed points compared and the rows there are
        read once per K.  D does not depend on i, so a zero den_J is an
        ``IntegrityError`` for the first K that has one and the first node,
        the first identity that divides by it."""
        rows, subsets = self._rows, self.subsets
        nodes = self.cartan.nodes()
        simple = [self.simple_class(i) for i in nodes]
        everywhere = range(len(subsets))
        nonzero = [set(compress(everywhere, row)) for row in rows]
        failing = []
        for k, (K, covers) in enumerate(zip(subsets, self._covers)):
            p_K = rows[k]
            diagonals = [rows[j][j] for j in covers]
            D = lcm(*diagonals)
            if not D:
                J = subsets[covers[diagonals.index(0)]]
                raise IntegrityError(
                    f"Monk division by zero for i={nodes[0]}, K={K}, J={J}")
            points = sorted(nonzero[k].union(*map(nonzero.__getitem__, covers)))
            D_at_K = [D * p_K[L] for L in points]
            # per cover J with p_{v_K}(w_J) != 0: J, p_{v_K}(w_J) den_J,
            # D / den_J p_{v_K}(w_J), and p_{v_J} at the points
            terms = [(j, p_K[j] * den, D // den * p_K[j],
                      [rows[j][L] for L in points])
                     for j, den in zip(covers, diagonals) if p_K[j]]
            for i, p_i in zip(nodes, simple):
                base = p_i[k]
                residual = [(p_i[L] - base) * c for L, c in zip(points, D_at_K)]
                for j, sign, scale, at_J in terms:
                    step = p_i[j] - base
                    if step * sign < 0:  # num_J den_J < 0
                        break
                    if step:
                        m = scale * step
                        residual = [x - m * c for x, c in zip(residual, at_J)]
                else:
                    if not any(residual):
                        continue
                failing.append((i, k))
        return [(i, subsets[k]) for i, k in sorted(failing)]

    # -- Giambelli rule ----------------------------------------------------

    def giambelli_holds(self, K) -> tuple[int, bool]:
        """The number of reduced words of v_K, and whether
        (|K|!/#reduced-words(v_K)) p_{v_K} = prod_{i in K} p_{s_i}, compared
        as |K|! p_{v_K} = #words b_K on the rows, with b_K read off the
        product table.  The count is read off the descent steps of the v_J
        (``_word_counts``); a zero count is an ``IntegrityError``."""
        K = tuple(sorted(set(K)))
        k = self._subset_index[K]
        n_words = self._word_counts[self._masks[k]]
        if not n_words:
            raise IntegrityError(f"v_K for K = {K} is not reduced")
        k_factorial = factorial(len(K))
        return n_words, [k_factorial * c for c in self._rows[k]] == \
            [n_words * c for c in self._products[k]]

    def product_holds(self, K, components) -> bool:
        """True iff p_{v_K} = prod_C p_{v_C} over the given node sets C (the
        product rule, for the connected components C of a disconnected K)."""
        return self.subset_class(K) == \
            _row_product(self.subset_class(C) for C in components)

    # -- module basis -------------------------------------------------------

    def verify_basis_triangular(self) -> CheckRecord:
        """Upper triangularity with nonzero diagonal, plus the support
        condition p_{v_K}(w_J) = 0 whenever K is not contained in J, read
        off the subset bitmasks: K is in J iff mask(K) & ~mask(J) is 0."""
        rows, masks = self._rows, self._masks
        ok_support = not any(m & ~M for m, row in zip(masks, rows)
                             for M in compress(masks, row))
        ok_triangular = not any(any(row[:r]) for r, row in enumerate(rows))
        ok_diagonal = all(row[r] for r, row in enumerate(rows))
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
                "diagonal": [[ratio(0, 1)] * len(K) + [ratio(rows[r][r], 1)]
                             if rows[r][r] else []
                             for r, K in enumerate(self.subsets)],
            },
        )

    # -- quadratic relations -------------------------------------------------

    def quadric_rows(self) -> list[tuple[int, ...]]:
        """Per node i, the row of the generator theta_i of
        ``commalg.build_ideal_J``, the ideal the ``hilbert`` check reads,
        under x_j -> p_{s_j} and t -> t.  Every theta_i is homogeneous of
        degree 2 and every simple row holds values over t, so the row is
        theta_i evaluated on the simple rows with t -> 1: its values over
        t^2.  A theta_i that is not homogeneous, where t -> 1 would mix
        degrees, is an ``IntegrityError``."""
        thetas = build_ideal_J(self.cartan).generators
        if not all(map(is_homogeneous, thetas)):
            raise IntegrityError("a quadric generator is not homogeneous")
        values = [self.simple_class(i) for i in self.cartan.nodes()]
        values.append(self.one())  # t, the last variable
        return [_evaluate(theta, values) for theta in thetas]

    def verify_quadratic_relations(self) -> CheckRecord:
        """x_i -> p_{s_i}, t -> t is well defined on Q[x, t]/J iff every
        generator theta_i of J maps to zero: ``failing_rows`` lists the
        nodes i whose theta_i does not (``quadric_rows``)."""
        failing = [i for i, row in enumerate(self.quadric_rows(), 1)
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
        2d = 0, 2, ..., cutoff_degree, proven on the product basis b_S
        without elimination.

        Every generator is a class of t-degree 1, so a degree-d monomial
        evaluates at each fixed point to (integer) * t^d, and at t = 1 the
        degree-d span V_d is the span of the p-monomials of degree at most
        d.  The argument, degree by degree:

        - *Triangularity.*  If every p_{s_i} vanishes at the w_L with
          i not in L (checked once, on the simple rows), then b_S vanishes
          off the supersets of S.  In the (size, bitmask) order the matrix
          b_S(w_L) is then upper triangular with diagonal b_S(w_S), so once
          every diagonal with |S| <= d is nonzero (checked per degree), the
          b_S with |S| <= d are independent.
        - *Spanning.*  V_d = V_{d-1} + sum_i p_{s_i} V_{d-1}.  Suppose
          V_{d-1} is spanned by the b_T with |T| <= d - 1.  For i not in T,
          p_{s_i} b_T = b_{T+i}.  For i in T with |T| < d - 1, p_{s_i} b_T
          lies in V_{|T|+1}, which is inside V_{d-1}.  So V_d is spanned by
          the b_S with |S| <= d once, for every S with |S| = d - 1 and every
          i in S, p_{s_i} b_S lies in that span.
        - *The reduction.*  p_{s_i} b_S vanishes off the supersets of S.
          If it is a combination of the b_U with |U| <= d, evaluate at w_U
          for a minimal U with a nonzero coefficient: only b_U is nonzero
          there, so U contains S, and so does every U of the combination.
          With |U| <= |S| + 1 that leaves b_S and the b_{S+j}, j not in S.
          p_{s_i} b_S is reduced by b_S (coefficient p_{s_i}(w_S), exact)
          and then by each b_{S+j}, which vanishes at w_S and at every other
          w_{S+j'}, so these steps do not interact.  They run fraction-free,
          the denominators b_{S+j}(w_{S+j}) cleared by their lcm, on the
          2^(n - |S|) fixed points above S (``_cleared_identity``).  The
          remainder must be zero.

        When every step of degree d holds, its dimension is
        sum_{k <= d} C(n, k); the list stops at the first degree that fails,
        and ``failure``, if given, receives the witness: the first simple
        entry off the supersets ({"kind": "support", "i", "L"}), a zero
        diagonal ({"kind": "diagonal", "S"}), or a nonzero remainder
        ({"kind": "reduction", "degree": 2d, "S", "i"}).
        """
        if cutoff_degree < 0 or cutoff_degree % 2:
            raise ValueError("cutoff degree must be even and non-negative")
        dims = [1]
        for d in range(1, cutoff_degree // 2 + 1):
            witness = self._support_failure() if d == 1 else None
            witness = witness or self._degree_failure(d, dims[-1])
            if witness:
                if failure is not None:
                    failure.update(witness)
                break
            dims.append(dims[-1] + comb(self.rank, d))
        return dims

    def _support_failure(self) -> dict | None:
        """The first simple-row entry p_{s_i}(w_L) != 0 with i not in L."""
        for i in self.cartan.nodes():
            bit = 1 << i - 1
            for L, mask, c in zip(self.subsets, self._masks, self.simple_class(i)):
                if c and not mask & bit:
                    return {"kind": "support", "i": i, "L": list(L)}
        return None

    def _degree_failure(self, d: int, start: int) -> dict | None:
        """The first zero diagonal b_S(w_S) with |S| = d, then the first
        (S, i) with |S| = d - 1 and i in S whose p_{s_i} b_S does not reduce
        to zero; subsets of size d start at index ``start``."""
        products, subsets, position = self._products, self.subsets, self._position
        for k in range(start, start + comb(self.rank, d)):
            if not products[k][k]:
                return {"kind": "diagonal", "S": list(subsets[k])}
        full = len(subsets) - 1
        for k in range(start - comb(self.rank, d - 1), start):
            covers = self._covers[k]
            diagonals = [products[j][j] for j in covers]
            D = lcm(*diagonals)
            row, mask = products[k], self._masks[k]
            above, free = [], full & ~mask
            sub = free
            while True:  # the supersets of S: S | sub for every sub of free
                above.append(position[mask | sub])
                if not sub:
                    break
                sub = sub - 1 & free
            for i in subsets[k]:
                p_i = self.simple_class(i)
                nums = [(p_i[j] - p_i[k]) * row[j] for j in covers]
                if not _cleared_identity(p_i, products, k, covers, nums,
                                         diagonals, D, above):
                    return {"kind": "reduction", "degree": 2 * d,
                            "S": list(subsets[k]), "i": i}
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
