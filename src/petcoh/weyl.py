"""Weyl group elements with canonical equality, and what the
``billey_welldef`` sweep does with them: right multiplication of action
matrices by simple reflections, and the breadth-first walk of the group in
``CayleyTable``, which also reads the right descents off the matrices and
counts the reduced words of each element it reaches.  The Peterson rows
walk on root heights alone and build no group (see ``billey``).

An element is stored as its exact integer matrix acting on simple-root
coordinates; equality and hashing use only that matrix, so any two words for
the same element compare equal.  Length is intrinsic (the number of positive
roots sent to negative roots), never the length of whatever word produced
the element.
"""

from __future__ import annotations

from .errors import IntegrityError
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

    Works on action matrices and keeps no per-element state; the positive
    roots live on ``CartanMatrix``, and the reduced-word counts of a swept
    ideal on its ``CayleyTable``.  All returned values are immutable.
    """

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.rank = cartan.rank
        n = cartan.rank
        self._identity_matrix = tuple(
            tuple(1 if r == c else 0 for c in range(n)) for r in range(n)
        )
        self._column_updates = cartan.column_updates()

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


class CayleyTable:
    """The elements of length <= max_len, found by one breadth-first walk,
    right multiplication by the simple reflections on them by index, and
    the number of reduced words of each.

    ``elements`` runs layer by layer; within a layer, the products u s_b
    are met for u in order and then b in node order, and each new one gets
    the witness word of u followed by b.  ``times[i]`` maps b to the index
    of u_i s_b for every right descent b of u_i and, when l(u_i) < max_len,
    every ascent b; ``ascents[i]`` maps each such ascent b to the root
    u_i(alpha_b), column b of the matrix.  Each ascent costs one
    ``right_action``, and its product is hashed once, here; nothing that
    reads the table hashes an action matrix.  The walk is bounded by
    max_len alone: layer k holds at most rank^k elements.

    ``counts[i]`` is the number of reduced words of u_i: 1 for the
    identity, else the sum of ``counts`` at ``times[i][b]`` over the right
    descents b, read off u_i's own matrix columns, not off ``ascents`` (a
    reduced word ends in a descent b, and the rest is a reduced word of
    u_i s_b).  Each layer is counted as the walk reaches it, the top one
    in a last pass that only reads descents; a descent with no ``times``
    entry, a product the walk never recorded, raises ``IntegrityError``.
    """

    def __init__(self, group: WeylGroup, max_len: int):
        identity = group.identity
        nodes = group.cartan.nodes()
        self.elements: list[WeylElement] = [identity]
        self.times: list[dict[int, int]] = [{}]
        self.ascents: list[dict[int, tuple[int, ...]]] = [{}]
        self.counts: list[int] = []
        elements, times, ascents = self.elements, self.times, self.ascents
        counts = self.counts
        index = {identity.action: 0}
        start = 0
        for length in range(max_len + 1):
            end = len(elements)
            grow = length < max_len
            for i in range(start, end):
                u = elements[i]
                edges = times[i]
                count = 0 if i else 1  # the identity's one word is ()
                for b, root in zip(nodes, zip(*u.action)):
                    if is_negative_root_vector(root):
                        j = edges.get(b)
                        if j is None:
                            raise IntegrityError(
                                f"the Cayley table has no product of "
                                f"{word_to_str(u.witness_word)} with its "
                                f"right descent {b}")
                        count += counts[j]
                        continue
                    if not grow:
                        continue
                    action = group.right_action(u.action, b)
                    j = index.get(action)
                    if j is None:
                        j = index[action] = len(elements)
                        elements.append(WeylElement(
                            action, u.length + 1, u.witness_word + (b,)))
                        times.append({})
                        ascents.append({})
                    # every descent of an element is the ascent of one below
                    edges[b] = j
                    times[j][b] = i
                    ascents[i][b] = root
                counts.append(count)
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
