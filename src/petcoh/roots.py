"""Root-system data: Lie types, Cartan matrices, reflections on root coordinates.

Node numbering follows the standard textbook ordering of the Dynkin diagram
(Humphreys' convention).  The table below fixes it; an arrow points from the
long root to the short root and the off-diagonal Cartan integers
``a[i][j] = <alpha_i, alpha_j>`` are listed for the multiple bonds.

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n          a[n-1][n] = -2,  a[n][n-1] = -1
    C_n   1 - 2 - ... - (n-1) <= n          a[n-1][n] = -1,  a[n][n-1] = -2
    D_n   1 - 2 - ... - (n-2) - (n-1)
                          \\
                           n                 (fork: n-1 and n attach to n-2)
    E_n   1 - 3 - 4 - 5 - 6 [- 7 [- 8]]
              |
              2                              (2 attaches to 4)
    F_4   1 - 2 => 3 - 4                     a[2][3] = -2,    a[3][2] = -1
    G_2   1 <<= 2 (triple bond)              a[1][2] = -1,    a[2][1] = -3

All matrices here are exact integer data; reflection actions are exact
integer linear maps on simple-root coordinates.
"""

from __future__ import annotations

from .commalg import leading_minors_positive
from .errors import IntegrityError

RANK_CONSTRAINTS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class LieType:
    """A simple Lie type: family letter plus rank (an int; a bool is not)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in RANK_CONSTRAINTS:
            raise ValueError(f"unknown family {family!r}; expected one of A-G")
        if type(rank) is not int:
            raise ValueError(f"rank {rank!r} is not an int")
        lo, hi = RANK_CONSTRAINTS[family]
        if rank < lo or (hi is not None and rank > hi):
            bound = f"rank >= {lo}" if hi is None else (
                f"rank == {lo}" if lo == hi else f"{lo} <= rank <= {hi}")
            raise ValueError(f"family {family} requires {bound}, got rank {rank}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("LieType is immutable")

    def __eq__(self, other):
        return (isinstance(other, LieType)
                and (self.family, self.rank) == (other.family, other.rank))

    def __hash__(self):
        return hash((self.family, self.rank))

    def __str__(self):
        return f"{self.family}{self.rank}"


def parse_lie_type(text: str) -> tuple[LieType, ...]:
    """Parse "A3", "G2", or a direct sum like "A2+A1" (block order as listed).

    Each stripped part is a family letter A-G and a rank in ASCII digits
    only: ``isdigit`` alone would also read "A\u0663" and "A\u00b3" as A3.
    The parse uses string methods, so no pattern is compiled when the
    module loads."""
    if type(text) is not str:
        raise ValueError(f"Lie type {text!r} is not a str")
    types = []
    for part in text.strip().split("+"):
        part = part.strip()
        family, digits = part[:1], part[1:]
        if family not in RANK_CONSTRAINTS or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse Lie type {part!r} (expected e.g. 'A3')")
        types.append(LieType(family, int(digits)))
    return tuple(types)


def _simple_edges(family: str, n: int) -> list[tuple[int, int, int, int]]:
    """Bonds of a simple diagram as (i, j, a_ij, a_ji), 1-based nodes."""
    chain = lambda k: [(i, i + 1, -1, -1) for i in range(1, k)]
    if family == "A":
        return chain(n)
    if family == "B":
        return chain(n - 1) + [(n - 1, n, -2, -1)]
    if family == "C":
        return chain(n - 1) + [(n - 1, n, -1, -2)]
    if family == "D":
        return chain(n - 2) + [(n - 2, n - 1, -1, -1), (n - 2, n, -1, -1)]
    if family == "E":
        edges = [(1, 3, -1, -1), (3, 4, -1, -1), (2, 4, -1, -1),
                 (4, 5, -1, -1), (5, 6, -1, -1)]
        if n >= 7:
            edges.append((6, 7, -1, -1))
        if n == 8:
            edges.append((7, 8, -1, -1))
        return edges
    if family == "F":
        return [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
    if family == "G":
        return [(1, 2, -1, -3)]
    raise IntegrityError(f"no diagram for family {family!r}")


class CartanMatrix:
    """Integer matrix of Cartan integers a[i][j] = <alpha_i, alpha_j>.

    The convention is the one appearing in the reflection action
    ``s_j(alpha_i) = alpha_i - a[i][j] alpha_j``; for multiply-laced types
    the matrix is not symmetric (G2 has a[1][2] = -1, a[2][1] = -3).
    Node indices are 1-based throughout the public API, and every entry
    must be an int (a bool, a float or a string is a ``ValueError``).
    Construction runs the package's one elimination, once per matrix, and
    refuses a leading minor that is not positive; the matrix is immutable,
    so the minors route (``commalg.zero_set_via_minors``) reads that fact.
    """

    __slots__ = ("entries", "lie_types", "rank", "_column_updates",
                 "_positive_roots")

    def __init__(self, entries, lie_types=()):
        entries = tuple(map(tuple, entries))
        for row in entries:
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"Cartan entry {x!r} is not an int")
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if entries[i][i] != 2:
                raise ValueError(f"diagonal entry a[{i+1}][{i+1}] must be 2")
            for j in range(n):
                if i == j:
                    continue
                if entries[i][j] > 0:
                    raise ValueError(f"off-diagonal a[{i+1}][{j+1}] must be <= 0")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise ValueError(
                        f"zero pattern must be symmetric at ({i+1},{j+1})")
                if entries[i][j] * entries[j][i] not in (0, 1, 2, 3):
                    raise ValueError(
                        f"bond product at ({i+1},{j+1}) outside {{0,1,2,3}}")
        if not leading_minors_positive(entries):
            raise ValueError("Cartan matrix is not positive definite "
                             "(finite type requires positive leading minors)")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "lie_types", tuple(lie_types))
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "_column_updates", None)
        object.__setattr__(self, "_positive_roots", None)

    def __setattr__(self, name, value):
        raise AttributeError("CartanMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CartanMatrix({self.type_name()!r})"

    def a(self, i: int, j: int) -> int:
        """Cartan integer <alpha_i, alpha_j>, 1-based."""
        return self.entries[i - 1][j - 1]

    def type_name(self) -> str:
        if self.lie_types:
            return "+".join(str(t) for t in self.lie_types)
        return f"rank-{self.rank} Cartan matrix"

    def nodes(self) -> range:
        return range(1, self.rank + 1)

    def column_updates(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Per node j, (k, a[k+1][j]) for the 0-based k of every nonzero
        entry of column j: j itself and its neighbours.  A simple reflection
        s_j changes exactly these coordinates of a vector of heights or of a
        row of an action matrix.  Built on first call."""
        if self._column_updates is None:
            n = self.rank
            updates = {j: tuple((k, self.entries[k][j - 1]) for k in range(n)
                                if self.entries[k][j - 1])
                       for j in self.nodes()}
            object.__setattr__(self, "_column_updates", updates)
        return self._column_updates

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """All positive roots in simple-root coordinates, sorted.

        Generated by closing the simple roots under all simple reflections;
        finiteness is guaranteed by positive definiteness.
        """
        if self._positive_roots is None:
            n = self.rank
            roots = {tuple(1 if k == i else 0 for k in range(n)) for i in range(n)}
            frontier = set(roots)
            while frontier:
                new = set()
                for v in frontier:
                    for j in self.nodes():
                        img = simple_reflection_action(self, j, v)
                        if img not in roots:
                            roots.add(img)
                            new.add(img)
                frontier = new
            pos = sorted(v for v in roots if all(c >= 0 for c in v))
            object.__setattr__(self, "_positive_roots", tuple(pos))
        return self._positive_roots


def cartan_matrix(lie_type) -> CartanMatrix:
    """Cartan matrix of a simple type, or the block-diagonal sum of several.

    Accepts a LieType, a string like "B3" or "A2+A1", or a sequence of
    LieTypes.  Blocks appear in the listed order with node indices offset.
    """
    if isinstance(lie_type, str):
        types = parse_lie_type(lie_type)
    elif isinstance(lie_type, LieType):
        types = (lie_type,)
    else:
        types = tuple(lie_type)
    n = sum(t.rank for t in types)
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    offset = 0
    for t in types:
        for i, j, aij, aji in _simple_edges(t.family, t.rank):
            entries[offset + i - 1][offset + j - 1] = aij
            entries[offset + j - 1][offset + i - 1] = aji
        offset += t.rank
    return CartanMatrix(entries, types)


def simple_reflection_action(cartan: CartanMatrix, j: int, v) -> tuple[int, ...]:
    """Apply s_j to a root-coordinate vector.

    Linear extension of s_j(alpha_i) = alpha_i - a[i][j] alpha_j (i != j)
    and s_j(alpha_j) = -alpha_j: only the j-th coordinate changes.
    """
    if not 1 <= j <= cartan.rank:
        raise IndexError(f"node index {j} out of range 1..{cartan.rank}")
    col = j - 1
    new_cj = v[col] - sum(v[i] * cartan.entries[i][col] for i in range(cartan.rank))
    out = list(v)
    out[col] = new_cj
    return tuple(out)


def is_negative_root_vector(v) -> bool:
    """Every coordinate <= 0 and one < 0; v is not empty."""
    return max(v) <= 0 and min(v) < 0


def is_positive_root_vector(v) -> bool:
    """Every coordinate >= 0 and one > 0; v is not empty."""
    return min(v) >= 0 and max(v) > 0
