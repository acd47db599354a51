"""The fixed-point restriction model of the circle-equivariant cohomology
of a Peterson variety.

The circle fixed points are indexed by subsets K of the Dynkin nodes, each
contributing the longest element w_K of its parabolic subgroup.  The
classes p_v are restrictions of equivariant Schubert classes to each w_K,
with every simple root sent to t; every such value is an integer multiple
of t^l(v), and ``billey.restricted_table`` computes that integer directly.
A class is therefore a degree and one integer per fixed point, standing for
(that integer) * t^degree; the ring structure is pointwise, and degrees add
under multiplication.

The ring itself is represented purely by these classes (the restriction map
to the fixed points is injective), so every identity below is checked
pointwise.  The classes p_{v_J} of all node subsets J are built together on
first use, with one restricted table per fixed point.  The Monk and
Giambelli identities have rational coefficients; each is checked with its
denominators cleared, so every class the checks build holds integers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm
from operator import mul

from .billey import restricted_table
from .commalg import IntegerEchelon
from .errors import IntegrityError
from .report import CheckRecord
from .roots import CartanMatrix
from .weyl import WeylElement, WeylGroup


@dataclass(frozen=True)
class FixedPoint:
    """One circle fixed point: a node subset K with its longest element."""

    K: tuple[int, ...]
    w_K: WeylElement
    index: int


def subsets_by_size(n: int):
    """All subsets of {1..n} as sorted tuples, ordered by (size, bitmask)."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in masks]


class PetersonClass:
    """A class in the restriction model: ``values[k] * t^degree`` at the
    k-th fixed point."""

    __slots__ = ("model", "degree", "values")

    def __init__(self, model: "PetersonModel", degree: int, values):
        values = tuple(values)
        if len(values) != len(model.fixed_points):
            raise ValueError("value tuple does not match the fixed-point set")
        self.model = model
        self.degree = degree
        self.values = values

    def _check_compatible(self, other: "PetersonClass"):
        if self.model.subsets != other.model.subsets or \
                self.model.cartan != other.model.cartan:
            raise ValueError("classes live over different fixed-point sets")

    def __eq__(self, other):
        # zero is zero in every degree
        return (isinstance(other, PetersonClass) and self.values == other.values
                and (self.degree == other.degree or self.is_zero()))

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def _sum(self, other, sign):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError(f"cannot add classes of degrees {self.degree} "
                             f"and {other.degree}")
        return PetersonClass(self.model, self.degree, (
            a + sign * b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        self._check_compatible(other)
        return PetersonClass(self.model, self.degree + other.degree,
                             (a * b for a, b in zip(self.values, other.values)))

    def scale(self, c, power: int = 0) -> "PetersonClass":
        """Multiply by c * t^power.  The checks pass integers only, so the
        classes they build keep integer values."""
        return PetersonClass(self.model, self.degree + power,
                             (c * a for a in self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def __repr__(self):
        return f"PetersonClass(t^{self.degree} * {list(self.values)})"


class PetersonModel:
    """Restriction model for one (semisimple) Lie type.

    Fixed points are enumerated by subsets of the node set, ordered by
    (size, bitmask), which makes the basis matrix literally upper
    triangular.  Construction localizes nothing: the classes p_{v_J} are
    built together on first use.
    """

    def __init__(self, cartan: CartanMatrix, group: WeylGroup | None = None):
        self.cartan = cartan
        self.group = group or WeylGroup(cartan)
        self.subsets = tuple(subsets_by_size(cartan.rank))
        self._subset_index = {K: i for i, K in enumerate(self.subsets)}
        self.fixed_points = tuple(
            FixedPoint(K, self.group.longest_element(K), i)
            for i, K in enumerate(self.subsets)
        )

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def type_name(self) -> str:
        return self.cartan.type_name()

    def subset_index(self, K) -> int:
        return self._subset_index[tuple(sorted(set(K)))]

    def one(self) -> PetersonClass:
        return PetersonClass(self, 0, (1 for _ in self.fixed_points))

    @cached_property
    def _subset_classes(self) -> tuple[PetersonClass, ...]:
        """p_{v_J} for every J, one restricted table per fixed point."""
        targets = [self.group.v_K(J) for J in self.subsets]
        columns = [restricted_table(self.group, targets, fp.w_K)
                   for fp in self.fixed_points]
        return tuple(PetersonClass(self, v.length, (c[v] for c in columns))
                     for v in targets)

    def subset_class(self, K) -> PetersonClass:
        """p_{v_K} for the ascending product v_K of the reflections in K."""
        return self._subset_classes[self.subset_index(K)]

    def simple_class(self, i: int) -> PetersonClass:
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
        p_i = self.simple_class(i).values
        denominator = self._subset_classes[j].values[j]
        if not denominator:
            raise IntegrityError(
                f"Monk division by zero for i={i}, K={K}, J={J}")
        return Fraction((p_i[j] - p_i[k]) * self._subset_classes[k].values[j],
                        denominator)

    def _covers(self, K: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [tuple(sorted(K + (j,))) for j in self.cartan.nodes()
                if j not in K]

    @cached_property
    def _monk_support(self) -> tuple[tuple[int, ...], ...]:
        """Per subset index of K, the fixed points at which p_{v_K} or
        p_{v_J} for some cover J of K is nonzero, read off their values."""
        nonzero = {K: {L for L, c in enumerate(cls.values) if c}
                   for K, cls in zip(self.subsets, self._subset_classes)}
        return tuple(tuple(sorted(nonzero[K].union(
            *map(nonzero.get, self._covers(K))))) for K in self.subsets)

    def verify_monk(self, i: int, K) -> CheckRecord:
        """Check p_{s_i} p_{v_K} = p_{s_i}(w_K) p_{v_K} + sum c_J p_{v_J},
        both sides multiplied by the lcm D of the denominators of the c_J so
        that every value is an integer.  The sides are compared on the value
        tuples at the fixed points of ``_monk_support`` only: every term has
        p_{v_K} or some p_{v_J} as a factor, so elsewhere both sides are 0."""
        K = tuple(sorted(set(K)))
        k = self._subset_index[K]
        classes = self._subset_classes
        p_i = self.simple_class(i).values
        p_K = classes[k].values
        covers = self._covers(K)
        cs = [self.monk_coefficient(i, K, J) for J in covers]
        D = lcm(*(c.denominator for c in cs))
        terms = [(classes[self._subset_index[J]].values,
                  D // c.denominator * c.numerator)
                 for J, c in zip(covers, cs) if c]
        passed = all(
            D * p_i[L] * p_K[L] == D * p_i[k] * p_K[L] + sum(
                m * p_J[L] for p_J, m in terms)
            for L in self._monk_support[k])
        coeffs = [{"J": list(J), "coefficient": c} for J, c in zip(covers, cs)]
        nonneg = all(c >= 0 for c in cs)
        return CheckRecord(
            check="monk",
            lie_type=self.type_name(),
            passed=passed and nonneg,
            parameters={"i": i, "K": list(K)},
            witnesses={
                "coefficients": coeffs,
                "identity_holds": passed,
                "coefficients_nonnegative": nonneg,
            },
        )

    # -- Giambelli rule ----------------------------------------------------

    def verify_giambelli(self, K) -> CheckRecord:
        """Check (|K|!/#reduced-words(v_K)) p_{v_K} = prod_{i in K} p_{s_i}
        for a connected node set K."""
        K = tuple(sorted(set(K)))
        if not self.cartan.is_connected(K):
            raise ValueError(
                f"K={K} is not connected; use verify_disconnected_product "
                "for split node sets")
        v = self.group.v_K(K)
        n_words = self.group.count_reduced_words(v)
        rhs = self.one()
        for i in K:
            rhs = rhs * self.simple_class(i)
        # both sides times #words keeps the check in integers
        passed = self.subset_class(K).scale(factorial(len(K))) == \
            rhs.scale(n_words)
        return CheckRecord(
            check="giambelli",
            lie_type=self.type_name(),
            passed=passed,
            parameters={"K": list(K)},
            witnesses={"coefficient": Fraction(factorial(len(K)), n_words),
                       "reduced_words": n_words},
        )

    def verify_disconnected_product(self, *parts) -> CheckRecord:
        """Check p_{v_K} = prod_C p_{v_C} for a node set K given as its
        connected components C (the product rule for disconnected K).
        Empty parts are the degenerate identity p_{v_{()}} = 1."""
        parts = [tuple(sorted(set(C))) for C in parts]
        union = tuple(sorted(set().union(*parts)))
        if sum(map(len, parts)) != len(union):
            raise ValueError("the parts must be disjoint")
        for C in parts:
            if C and not self.cartan.is_connected(C):
                raise ValueError(f"{C} must be connected")
        components = [C for C in parts if C]
        if len(components) > 1 and \
                len(self.cartan.connected_components(union)) != len(components):
            raise ValueError("the parts must be the components of a "
                             "disconnected union")
        rhs = self.one()
        for C in parts:
            rhs = rhs * self.subset_class(C)
        return CheckRecord(
            check="disconnected_product",
            lie_type=self.type_name(),
            passed=self.subset_class(union) == rhs,
            parameters={"parts": [list(C) for C in parts]},
            witnesses={"union": list(union)},
        )

    # -- module basis -------------------------------------------------------

    def verify_basis_triangular(self) -> CheckRecord:
        """Upper triangularity with nonzero diagonal, plus the support
        condition p_{v_K}(w_J) = 0 whenever K is not contained in J."""
        rows = [self.subset_class(K).values for K in self.subsets]
        ok_support = not any(
            rows[r][c] for r, K in enumerate(self.subsets)
            for c, J in enumerate(self.subsets) if not set(K) <= set(J))
        ok_triangular = not any(rows[r][c] for r in range(len(rows))
                                for c in range(r))
        ok_diagonal = all(rows[r][r] for r in range(len(rows)))
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

    def quadratic_combination(self, i: int) -> PetersonClass:
        """sum_j <alpha_i, alpha_j> p_{s_i} p_{s_j} - 2 t p_{s_i}."""
        p_i = self.simple_class(i)
        acc = p_i.scale(-2, 1)
        for j in self.cartan.nodes():
            a_ij = self.cartan.a(i, j)
            if a_ij:
                acc = acc + (p_i * self.simple_class(j)).scale(a_ij)
        return acc

    def verify_quadratic_relations(self) -> CheckRecord:
        residuals = {i: self.quadratic_combination(i) for i in self.cartan.nodes()}
        failing = sorted(i for i, r in residuals.items() if not r.is_zero())
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
        simple = [self.simple_class(i).values for i in self.cartan.nodes()]
        one = self.one().values
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
        n = self.rank
        expected = [
            sum(comb(n, k) for k in range(d + 1))
            for d in range(cutoff_degree // 2 + 1)
        ]
        return CheckRecord(
            check="graded_dims",
            lie_type=self.type_name(),
            passed=dims == expected,
            parameters={"cutoff_degree": cutoff_degree},
            witnesses={"computed": dims, "expected": expected},
        )
