"""The fixed-point restriction model of the circle-equivariant cohomology
of a Peterson variety.

The circle fixed points are indexed by subsets K of the Dynkin nodes, each
contributing the longest element w_K of its parabolic subgroup.  A class is
a tuple of t-polynomials, one per fixed point; the ring structure is
pointwise.  The classes p_v are restrictions of equivariant Schubert
classes, computed by localizing at each w_K and sending every simple root
to t.

The ring itself is represented purely by these tuples (the restriction map
to the fixed points is injective), so every identity below is checked
pointwise with exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .billey import billey_localization, restrict_to_S
from .commalg import TPolynomial, bareiss_pivots
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
    """A class in the restriction model: one t-polynomial per fixed point."""

    __slots__ = ("model", "values")

    def __init__(self, model: "PetersonModel", values):
        values = tuple(values)
        if len(values) != len(model.fixed_points):
            raise ValueError("value tuple does not match the fixed-point set")
        self.model = model
        self.values = values

    def _check_compatible(self, other: "PetersonClass"):
        if self.model.subsets != other.model.subsets or \
                self.model.cartan != other.model.cartan:
            raise ValueError("classes live over different fixed-point sets")

    def value(self, K) -> TPolynomial:
        """Restriction at the fixed point w_K."""
        return self.values[self.model.subset_index(K)]

    def __eq__(self, other):
        return isinstance(other, PetersonClass) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other):
        self._check_compatible(other)
        return PetersonClass(self.model,
                             (a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check_compatible(other)
        return PetersonClass(self.model,
                             (a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        self._check_compatible(other)
        return PetersonClass(self.model,
                             (a * b for a, b in zip(self.values, other.values)))

    def scale(self, t_poly: TPolynomial) -> "PetersonClass":
        """Multiply by an element of the coefficient ring of t-polynomials."""
        return PetersonClass(self.model, (t_poly * a for a in self.values))

    def scale_rational(self, c) -> "PetersonClass":
        return PetersonClass(self.model, (a.scale(c) for a in self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def to_json(self):
        return {
            ",".join(map(str, fp.K)): val.to_json()
            for fp, val in zip(self.model.fixed_points, self.values)
        }

    def __repr__(self):
        parts = ", ".join(
            f"{{{','.join(map(str, fp.K))}}}: {val!r}"
            for fp, val in zip(self.model.fixed_points, self.values))
        return f"PetersonClass({parts})"


class PetersonModel:
    """Restriction model for one (semisimple) Lie type.

    Fixed points are enumerated by subsets of the node set, ordered by
    (size, bitmask), which makes the basis matrix literally upper
    triangular.  Classes are cached per Weyl element.
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
        self._class_memo: dict[tuple, PetersonClass] = {}

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def type_name(self) -> str:
        return self.cartan.type_name()

    def subset_index(self, K) -> int:
        return self._subset_index[tuple(sorted(set(K)))]

    def one(self) -> PetersonClass:
        return PetersonClass(
            self, (TPolynomial.one() for _ in self.fixed_points))

    def schubert_class(self, v: WeylElement) -> PetersonClass:
        """p_v: localize sigma_v at every fixed point and restrict to t."""
        cached = self._class_memo.get(v.action)
        if cached is not None:
            return cached
        values = []
        for fp in self.fixed_points:
            values.append(
                restrict_to_S(billey_localization(self.group, v, fp.w_K)))
        cls = PetersonClass(self, values)
        for fp, val in zip(self.fixed_points, values):
            if val and not val.is_monomial_of_degree(v.length):
                raise IntegrityError(
                    f"p_v(w_K) not homogeneous of degree {v.length} at K={fp.K}")
        self._class_memo[v.action] = cls
        return cls

    def subset_class(self, K) -> PetersonClass:
        """p_{v_K} for the ascending product v_K of the reflections in K."""
        return self.schubert_class(self.group.v_K(K))

    def simple_class(self, i: int) -> PetersonClass:
        return self.schubert_class(self.group.simple_reflection(i))

    # -- Monk rule -------------------------------------------------------

    def monk_coefficient(self, i: int, K, J) -> Fraction:
        """Structure constant of p_{s_i} p_{v_K} on p_{v_J} for a cover
        K subset J, |J| = |K| + 1.

        Computed as (p_{s_i}(w_J) - p_{s_i}(w_K)) p_{v_K}(w_J) / p_{v_J}(w_J);
        the division must be exact and the quotient a constant, anything else
        is a pipeline bug.
        """
        K = tuple(sorted(set(K)))
        J = tuple(sorted(set(J)))
        if not (set(K) < set(J) and len(J) == len(K) + 1):
            raise ValueError("expected a cover: K subset of J with |J| = |K|+1")
        p_i = self.simple_class(i)
        diff = p_i.value(J) - p_i.value(K)
        numerator = diff * self.subset_class(K).value(J)
        denominator = self.subset_class(J).value(J)
        try:
            quotient = numerator.exact_div(denominator)
        except ValueError as exc:
            raise IntegrityError(
                f"inexact Monk division for i={i}, K={K}, J={J}") from exc
        if quotient.degree() > 0:
            raise IntegrityError(
                f"Monk coefficient for i={i}, K={K}, J={J} is not constant: "
                f"{quotient!r}")
        return quotient.coeff(0)

    def verify_monk(self, i: int, K) -> CheckRecord:
        """Check p_{s_i} p_{v_K} = p_{s_i}(w_K) p_{v_K} + sum c p_{v_J}
        pointwise over all fixed points."""
        K = tuple(sorted(set(K)))
        p_i = self.simple_class(i)
        p_K = self.subset_class(K)
        lhs = p_i * p_K
        rhs = p_K.scale(p_i.value(K))
        coeffs = []
        for j in self.cartan.nodes():
            if j in K:
                continue
            J = tuple(sorted(K + (j,)))
            c = self.monk_coefficient(i, K, J)
            coeffs.append({"J": list(J), "coefficient": c})
            if c:
                rhs = rhs + self.subset_class(J).scale_rational(c)
        passed = lhs == rhs
        nonneg = all(item["coefficient"] >= 0 for item in coeffs)
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
        coeff = Fraction(factorial(len(K)), n_words)
        lhs = self.subset_class(K).scale_rational(coeff)
        rhs = self.one()
        for i in K:
            rhs = rhs * self.simple_class(i)
        passed = lhs == rhs
        return CheckRecord(
            check="giambelli",
            lie_type=self.type_name(),
            passed=passed,
            parameters={"K": list(K)},
            witnesses={"coefficient": coeff, "reduced_words": n_words},
        )

    def verify_disconnected_product(self, J, K) -> CheckRecord:
        """Check p_{v_{J u K}} = p_{v_J} p_{v_K} for disjoint J, K whose
        union is disconnected.  Empty J or K is the degenerate identity."""
        J = tuple(sorted(set(J)))
        K = tuple(sorted(set(K)))
        if set(J) & set(K):
            raise ValueError("J and K must be disjoint")
        if J and K:
            if not self.cartan.is_connected(J):
                raise ValueError(f"J={J} must be connected")
            if not self.cartan.is_connected(K):
                raise ValueError(f"K={K} must be connected")
            if self.cartan.is_connected(J + K):
                raise ValueError("the union J u K must be disconnected")
        union = tuple(sorted(J + K))
        lhs = self.subset_class(union)
        rhs = self.subset_class(J) * self.subset_class(K)
        return CheckRecord(
            check="disconnected_product",
            lie_type=self.type_name(),
            passed=lhs == rhs,
            parameters={"J": list(J), "K": list(K)},
            witnesses={"union": list(union)},
        )

    # -- module basis -------------------------------------------------------

    def basis_matrix(self):
        """Matrix of p_{v_K}(w_J) with rows K and columns J in the fixed
        subset order."""
        return [
            [self.subset_class(K).value(J) for J in self.subsets]
            for K in self.subsets
        ]

    def verify_basis_triangular(self) -> CheckRecord:
        """Upper triangularity with nonzero diagonal, plus the support
        condition p_{v_K}(w_J) = 0 whenever K is not contained in J."""
        matrix = self.basis_matrix()
        ok_support = True
        ok_triangular = True
        ok_diagonal = True
        for r, K in enumerate(self.subsets):
            for c, J in enumerate(self.subsets):
                entry = matrix[r][c]
                if not set(K) <= set(J) and entry:
                    ok_support = False
                if r > c and entry:
                    ok_triangular = False
            if not matrix[r][r]:
                ok_diagonal = False
        return CheckRecord(
            check="basis",
            lie_type=self.type_name(),
            passed=ok_support and ok_triangular and ok_diagonal,
            parameters={"size": len(self.subsets)},
            witnesses={
                "upper_triangular": ok_triangular,
                "support_condition": ok_support,
                "diagonal_nonzero": ok_diagonal,
                "diagonal": [matrix[r][r].to_json() for r in range(len(self.subsets))],
            },
        )

    # -- quadratic relations -------------------------------------------------

    def quadratic_combination(self, i: int) -> PetersonClass:
        """sum_j <alpha_i, alpha_j> p_{s_i} p_{s_j} - 2 t p_{s_i}."""
        p_i = self.simple_class(i)
        acc = p_i.scale(TPolynomial((0, -2)))
        for j in self.cartan.nodes():
            a_ij = self.cartan.a(i, j)
            if a_ij:
                acc = acc + (p_i * self.simple_class(j)).scale_rational(a_ij)
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

        Every generator value is homogeneous of t-degree 1, so a degree-d
        monomial evaluates at each fixed point to (rational) * t^d and the
        span lives in a vector space of dimension 2^n.
        """
        if cutoff_degree < 0 or cutoff_degree % 2:
            raise ValueError("cutoff degree must be even and non-negative")
        n = self.rank
        # coefficient vectors of the generators: t contributes 1 everywhere,
        # p_{s_i} contributes its t-coefficient at each fixed point
        gen_vectors = [[Fraction(1)] * len(self.fixed_points)]
        for i in self.cartan.nodes():
            vals = self.simple_class(i).values
            gen_vectors.append([v.coeff(1) for v in vals])
        dims = []
        for d in range(cutoff_degree // 2 + 1):
            rows = []
            for exps in _compositions(d, n + 1):
                row = [Fraction(1)] * len(self.fixed_points)
                for g, e in enumerate(exps):
                    if e:
                        vec = gen_vectors[g]
                        for k in range(len(row)):
                            row[k] *= vec[k] ** e
                rows.append(row)
            dims.append(_rank(rows))
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


def _compositions(total: int, parts: int):
    """All exponent tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _rank(rows) -> int:
    """Exact rank of a matrix of integral rationals.

    The rows of ``image_graded_dimensions`` are integral because every
    p_v(w_K) is an integer multiple of t^l(v); anything else is a pipeline
    bug.
    """
    if any(x.denominator != 1 for row in rows for x in row):
        raise IntegrityError("rank matrix has a non-integral entry")
    return len(bareiss_pivots([[int(x) for x in row] for row in rows]))
