"""Weyl group elements with canonical equality, and what a run does with them:
right multiplication of action matrices by simple reflections, right
descents, reduced-word counts, and the breadth-first walk of the group in
``CayleyTable``.

An element is stored as its exact integer matrix acting on simple-root
coordinates; equality and hashing use only that matrix, so any two words for
the same element compare equal.  Length is intrinsic (the number of positive
roots sent to negative roots), never the length of whatever word produced
the element.
"""

from __future__ import annotations

from .roots import CartanMatrix, is_negative_root_vector


class WeylElement:
    """A Weyl group element.

    ``action`` is the matrix sending root coordinates c to (action @ c),
    ``witness_word`` is one reduced word (1-based node indices), and
    ``length`` is the inversion count, which always equals
    ``len(witness_word)``.
    """

    __slots__ = ("action", "length", "witness_word")

    def __init__(self, action: tuple[tuple[int, ...], ...], length: int,
                 witness_word: tuple[int, ...]):
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "witness_word", witness_word)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.action == other.action

    def __hash__(self):
        return hash(self.action)

    def __repr__(self):
        word = word_to_str(self.witness_word) or "e"
        return f"WeylElement({word})"

    def is_identity(self) -> bool:
        return self.length == 0


def word_to_str(word) -> str:
    """Serialize a word as comma-separated 1-based node indices."""
    return ",".join(str(i) for i in word)


class WeylGroup:
    """Weyl group of a Cartan matrix.

    Works on action matrices and holds the per-group cache of reduced-word
    counts; the positive roots live on ``CartanMatrix``.  All returned
    values are immutable.
    """

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.rank = cartan.rank
        n = cartan.rank
        self._identity_matrix = tuple(
            tuple(1 if r == c else 0 for c in range(n)) for r in range(n)
        )
        # node i -> [(k, a(k, i)) for a(k, i) != 0]: i itself and its neighbours
        self._column_updates = {
            i: tuple((k, cartan.entries[k][i - 1]) for k in range(n)
                     if cartan.entries[k][i - 1])
            for i in cartan.nodes()
        }
        # reduced-word counts keyed by action, seeded with the identity
        self._count_memo: dict[tuple, int] = {self._identity_matrix: 1}

    # -- construction ---------------------------------------------------

    @property
    def identity(self) -> WeylElement:
        return WeylElement(self._identity_matrix, 0, ())

    def right_action(self, action, i: int):
        """Matrix of w s_i from the matrix of w.

        Column k of the matrix is w(alpha_k), and
        (w s_i)(alpha_k) = w(alpha_k) - a(k, i) w(alpha_i), with a(i, i) = 2
        giving -w(alpha_i); only the columns of i and its neighbours change,
        and rows with a zero in column i are kept as they are.
        """
        col = i - 1
        updates = self._column_updates[i]
        out = []
        for row in action:
            x = row[col]
            if x:
                row = list(row)
                for k, a in updates:
                    row[k] -= a * x
                row = tuple(row)
            out.append(row)
        return tuple(out)

    # -- reduced words ---------------------------------------------------

    def descents(self, action) -> list[int]:
        """Right descents of a matrix: the i with l(w s_i) < l(w), i.e.
        the root w(alpha_i), column i, has a negative entry."""
        return [i for i, column in zip(self.cartan.nodes(), zip(*action))
                if min(column) < 0]

    def count_reduced_words(self, w: WeylElement) -> int:
        """Number of reduced words: sum over right descents s of the count
        for ws, with the identity counting 1.  Memoized per group."""

        def rec(action) -> int:
            total = self._count_memo.get(action)
            if total is None:
                total = self._count_memo[action] = sum(
                    rec(self.right_action(action, i))
                    for i in self.descents(action))
            return total

        return rec(w.action)


class CayleyTable:
    """The elements of length <= max_len, found by one breadth-first walk,
    and right multiplication by the simple reflections on them by index.

    ``elements`` runs layer by layer; within a layer, the products u s_b
    are met for u in order and then b in node order, and each new one gets
    the witness word of u followed by b.  ``times[i]`` maps b to the index
    of u_i s_b for every right descent b of u_i and, when l(u_i) < max_len,
    every ascent b; ``ascents[i]`` maps each such ascent b to the root
    u_i(alpha_b), column b of the matrix.  Each ascent costs one
    ``right_action``, and its product is hashed once, here; nothing that
    reads the table hashes an action matrix.  The walk is bounded by
    max_len alone: layer k holds at most rank^k elements.
    """

    def __init__(self, group: WeylGroup, max_len: int):
        identity = group.identity
        self.elements: list[WeylElement] = [identity]
        self.times: list[dict[int, int]] = [{}]
        self.ascents: list[dict[int, tuple[int, ...]]] = [{}]
        index = {identity.action: 0}
        start = 0
        for _ in range(max_len):
            end = len(self.elements)
            for i in range(start, end):
                u = self.elements[i]
                for b in group.cartan.nodes():
                    root = tuple(row[b - 1] for row in u.action)
                    if is_negative_root_vector(root):
                        continue
                    action = group.right_action(u.action, b)
                    j = index.get(action)
                    if j is None:
                        j = index[action] = len(self.elements)
                        self.elements.append(WeylElement(
                            action, u.length + 1, u.witness_word + (b,)))
                        self.times.append({})
                        self.ascents.append({})
                    # every descent of an element is the ascent of one below
                    self.times[i][b] = j
                    self.times[j][b] = i
                    self.ascents[i][b] = root
            start = end

    def bruhat_intervals(self) -> list[set[int]]:
        """[e, u_i] as a set of indices for every i, by length from
        [e, w] = [e, ws] u [e, ws] s for the last letter s of w's witness
        word, a right descent (lifting property; Bjorner-Brenti,
        Combinatorics of Coxeter Groups, Prop. 2.2.7).  Each u in [e, ws]
        has l(u) < l(w) <= max_len, so u s is in the table."""
        intervals: list[set[int]] = []
        for i, w in enumerate(self.elements):
            if w.is_identity():
                intervals.append({i})
                continue
            s = w.witness_word[-1]
            below = intervals[self.times[i][s]]
            intervals.append(below | {self.times[u][s] for u in below})
        return intervals
