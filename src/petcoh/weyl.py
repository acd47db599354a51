"""Weyl group elements with canonical equality, and right multiplication
of action matrices by simple reflections.  No run builds a Weyl group: the
Peterson rows walk on root heights alone (see ``billey``).  The elements
serve ``billey.localization_table`` and the tests.

An element is stored as its exact integer matrix acting on simple-root
coordinates; equality and hashing use only that matrix, so any two words for
the same element compare equal.  Length is intrinsic (the number of positive
roots sent to negative roots), never the length of whatever word produced
the element.
"""

from __future__ import annotations

from .roots import CartanMatrix


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


def word_to_str(word) -> str:
    """Serialize a word as comma-separated 1-based node indices."""
    return ",".join(str(i) for i in word)


class WeylGroup:
    """Weyl group of a Cartan matrix.

    Works on action matrices and keeps no per-element state; the positive
    roots live on ``CartanMatrix``.  All returned values are immutable.
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

