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
first use, one pass per fixed point on subset bitmasks.  Every identity
checked below is homogeneous in t, so it is compared at t = 1, pointwise on
the rows.  The Monk and Giambelli identities have rational coefficients;
each is computed on the rows with its denominators cleared, so the
comparison stays in the integers, and returns a bool: the ``monk`` and
``giambelli`` checks in ``cli`` build the one record of each check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, compress
from math import comb, factorial, lcm
from operator import mul

from .billey import restricted_rows
from .commalg import IntegerEchelon
from .errors import IntegrityError
from .report import CheckRecord
from .roots import CartanMatrix
from .weyl import WeylGroup


def _row_product(rows) -> tuple[int, ...]:
    """The pointwise product of one or more rows."""
    return tuple(reduce(partial(map, mul), rows))


def subsets_by_size(n: int):
    """All subsets of {1..n} as sorted tuples, ordered by (size, bitmask)."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in masks]


class PetersonModel:
    """Restriction model for one (semisimple) Lie type.

    Fixed points are enumerated by subsets of the node set, ordered by
    (size, bitmask), which makes the basis matrix literally upper
    triangular.  Construction computes nothing: the longest elements w_K
    and the rows of the classes p_{v_J} are built together on first use.
    """

    def __init__(self, cartan: CartanMatrix, group: WeylGroup | None = None):
        if group is not None and group.cartan != cartan:
            raise ValueError(f"group is of type {group.cartan.type_name()}, "
                             f"not {cartan.type_name()}")
        self.cartan = cartan
        self.group = group or WeylGroup(cartan)
        self.subsets = tuple(subsets_by_size(cartan.rank))
        self._subset_index = {K: i for i, K in enumerate(self.subsets)}

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
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """Row k: p_{v_K}(w_L) / t^|K| at every fixed point L, for
        K = subsets[k]; one pass of each w_L's witness word over the
        descent steps of the v_J (``billey.restricted_rows``)."""
        return restricted_rows(self.group, self.subsets)

    def subset_class(self, K) -> tuple[int, ...]:
        """The row of p_{v_K}, of degree |K|, for the ascending product v_K
        of the reflections in K."""
        return self._rows[self.subset_index(K)]

    def simple_class(self, i: int) -> tuple[int, ...]:
        """The row of p_{s_i}, of degree 1."""
        return self.subset_class((i,))

    # -- Monk rule -------------------------------------------------------

    def monk_coefficient(self, i: int, K, J) -> Fraction:
        """Structure constant of p_{s_i} p_{v_K} on p_{v_J} for a cover
        K subset J, |J| = |K| + 1.

        Computed as (p_{s_i}(w_J) - p_{s_i}(w_K)) p_{v_K}(w_J) / p_{v_J}(w_J).
        Numerator and denominator are both multiples of t^|J|, so the
        quotient is the rational number of their coefficients; a zero
        denominator is a pipeline bug.
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
        return Fraction((p_i[j] - p_i[k]) * self._rows[k][j], denominator)

    def _covers(self, K: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple(sorted(K + (j,))) for j in self.cartan.nodes()
                if j not in K]

    @cached_property
    def _monk_support(self) -> tuple[tuple[int, ...], ...]:
        """Per subset index of K, the fixed points at which p_{v_K} or
        p_{v_J} for some cover J of K is nonzero, read off the rows."""
        nonzero = {K: {L for L, c in enumerate(row) if c}
                   for K, row in zip(self.subsets, self._rows)}
        return tuple(tuple(sorted(nonzero[K].union(
            *map(nonzero.get, self._covers(K))))) for K in self.subsets)

    def monk_holds(self, i: int, K) -> bool:
        """True iff p_{s_i} p_{v_K} = p_{s_i}(w_K) p_{v_K} + sum c_J p_{v_J}
        over the covers J of K, with every c_J nonnegative.  Both sides are
        multiplied by the lcm D of the denominators of the c_J so that every
        value is an integer, and compared on the rows at the fixed points of
        ``_monk_support`` only: every term has p_{v_K} or some p_{v_J} as a
        factor, so elsewhere both sides are 0."""
        K = tuple(sorted(set(K)))
        k = self._subset_index[K]
        rows = self._rows
        p_i = self.simple_class(i)
        p_K = rows[k]
        covers = self._covers(K)
        cs = [self.monk_coefficient(i, K, J) for J in covers]
        if any(c < 0 for c in cs):
            return False
        D = lcm(*(c.denominator for c in cs))
        terms = [(rows[self._subset_index[J]], D // c.denominator * c.numerator)
                 for J, c in zip(covers, cs) if c]
        return all(
            D * p_i[L] * p_K[L] == D * p_i[k] * p_K[L] + sum(
                m * p_J[L] for p_J, m in terms)
            for L in self._monk_support[k])

    # -- Giambelli rule ----------------------------------------------------

    def giambelli_holds(self, K) -> tuple[int, bool]:
        """The number of reduced words of v_K, and whether
        (|K|!/#reduced-words(v_K)) p_{v_K} = prod_{i in K} p_{s_i}, compared
        as |K|! p_{v_K} = #words prod p_{s_i} on the rows."""
        K = tuple(sorted(set(K)))
        n_words = self.group.count_reduced_words(self.group.v_K(K))
        k_factorial = factorial(len(K))
        product = _row_product(self.simple_class(i) for i in K)
        return n_words, [k_factorial * c for c in self.subset_class(K)] == \
            [n_words * c for c in product]

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
        rows = self._rows
        masks = [sum(1 << i for i in K) for K in self.subsets]
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
                "diagonal": [["0/1"] * len(K) + [f"{rows[r][r]}/1"]
                             if rows[r][r] else []
                             for r, K in enumerate(self.subsets)],
            },
        )

    # -- quadratic relations -------------------------------------------------

    def quadratic_combination(self, i: int) -> tuple[int, ...]:
        """sum_j <alpha_i, alpha_j> p_{s_i} p_{s_j} - 2 t p_{s_i}, of
        degree 2, as its row."""
        p_i = self.simple_class(i)
        terms = [(a_ij, self.simple_class(j)) for j in self.cartan.nodes()
                 if (a_ij := self.cartan.a(i, j))]
        return tuple(c * (sum(a_ij * p_j[L] for a_ij, p_j in terms) - 2)
                     for L, c in enumerate(p_i))

    def verify_quadratic_relations(self) -> CheckRecord:
        failing = [i for i in self.cartan.nodes()
                   if any(self.quadratic_combination(i))]
        return CheckRecord(
            check="quadratic",
            lie_type=self.type_name(),
            passed=not failing,
            parameters={"relations": self.rank},
            witnesses={"failing_rows": failing},
        )

    # -- graded dimensions -----------------------------------------------

    def image_graded_dimensions(self, cutoff_degree: int) -> list[int]:
        """Rank of the span of degree-2d monomials in {t, p_{s_1}..p_{s_n}},
        evaluated as fixed-point tuples, for 2d = 0, 2, ..., cutoff_degree.

        Every generator is a class of t-degree 1, so a degree-d monomial
        evaluates at each fixed point to (integer) * t^d and the span lives
        in a vector space of dimension 2^n.  At t = 1 the degree-d span V_d
        is spanned by the p-monomials of degree at most d, so
        V_d = V_{d-1} + sum_i p_{s_i} N_{d-1}, where N_{d-1} holds the rows
        that were new at degree d-1 (together with V_{d-2} they span
        V_{d-1}).  Each candidate row goes through one incremental integer
        echelon form; at most 2^n rows are ever new and each spawns n
        candidates, so at most 1 + n 2^n rows are tried over all degrees.
        """
        if cutoff_degree < 0 or cutoff_degree % 2:
            raise ValueError("cutoff degree must be even and non-negative")
        simple = [self.simple_class(i) for i in self.cartan.nodes()]
        one = self.one()
        echelon = IntegerEchelon()
        echelon.insert(one)
        new, dims = [one], [1]
        for _ in range(cutoff_degree // 2):
            candidates = [tuple(map(mul, row, vec))
                          for row in new for vec in simple]
            new = [row for row in candidates if echelon.insert(row)]
            dims.append(len(echelon))
        return dims

    def verify_graded_dimensions(self, cutoff_degree: int) -> CheckRecord:
        """Compare the computed dimensions with the coefficients of the
        closed-form series (1+s^2)^n / (1-s^2): partial sums of binomials."""
        dims = self.image_graded_dimensions(cutoff_degree)
        expected = list(accumulate(
            comb(self.rank, k) for k in range(cutoff_degree // 2 + 1)))
        return CheckRecord(
            check="graded_dims",
            lie_type=self.type_name(),
            passed=dims == expected,
            parameters={"cutoff_degree": cutoff_degree},
            witnesses={"computed": dims, "expected": expected},
        )
