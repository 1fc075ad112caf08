"""Finite posets: relation tables, covers, chains, dismantling.

Relations are stored as bitmask rows, which keeps beat-point dismantling
and cover extraction fast on posets with a few hundred elements.  The
up-set rows are the relation; the down-set rows are their transpose, built
on first use: ``bottom``, ``top``, ``leq``, ``covers`` and ``restrict``
read only the up-rows, and ``dismantle_core`` reads the down-rows only if
its up-side pass leaves more than one element.
``restrict`` cuts each up-row into the runs of consecutive kept indices
and shifts each run into place.
"""
from __future__ import annotations

import functools
import operator
from typing import Callable, Optional

from .ogposet import _bits


class FinPoset:
    """A finite poset given by an element list and a reflexive leq relation."""

    def __init__(self, elements: list, leq_matrix=None, *, up_masks=None):
        self.elements = list(elements)
        self.n = len(self.elements)
        if up_masks is None:
            up_masks = [sum(1 << j for j, x in enumerate(row) if x) for row in leq_matrix]
        self._up = [row | 1 << i for i, row in enumerate(up_masks)]

    @functools.cached_property
    def _dn(self) -> list[int]:
        dn = [0] * self.n
        for i in range(self.n):
            for j in _bits(self._up[i]):
                dn[j] |= 1 << i
        return dn

    @classmethod
    def from_leq(cls, elements: list, leq: Callable) -> "FinPoset":
        els = list(elements)
        return cls(els, [[leq(a, b) for b in els] for a in els])

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    def up_mask(self, i: int) -> int:
        return self._up[i] & ~(1 << i)

    def down_mask(self, i: int) -> int:
        return self._dn[i] & ~(1 << i)

    def bottom(self) -> Optional[int]:
        """The element below all others: its up-row is full."""
        full = (1 << self.n) - 1
        return self._up.index(full) if full in self._up else None

    def top(self) -> Optional[int]:
        """The element above all others: in a finite poset, the one maximal
        element, whose up-row is itself alone."""
        maxima = [i for i, row in enumerate(self._up) if row == 1 << i]
        return maxima[0] if len(maxima) == 1 else None

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i: the covers of i are the minimal
        elements of its strict up-set."""
        strict = [self.up_mask(i) for i in range(self.n)]
        out = []
        for i, ups in enumerate(strict):
            above = functools.reduce(operator.or_, (strict[j] for j in _bits(ups)), 0)
            out += [(i, j) for j in _bits(ups & ~above)]
        return out

    def restrict(self, keep: list[int]) -> "FinPoset":
        """The induced subposet on ``keep``, a list of increasing indices:
        each run of consecutive kept indices is shifted into place."""
        runs: list[list[int]] = []  # [start, end, shift]
        for new, old in enumerate(keep):
            if runs and runs[-1][1] == old:
                runs[-1][1] += 1
            else:
                runs.append([old, old + 1, old - new])
        cuts = [((1 << end) - (1 << start), shift) for start, end, shift in runs]
        ups = [sum((self._up[old] & run) >> shift for run, shift in cuts) for old in keep]
        return FinPoset([self.elements[i] for i in keep], up_masks=ups)

    def chains(self) -> list[list[tuple[int, ...]]]:
        """All nonempty chains, grouped by length (index = length - 1)."""
        out: list[list[tuple[int, ...]]] = []

        def rec(chain: tuple[int, ...], above: int):
            length = len(chain)
            while len(out) < length:
                out.append([])
            out[length - 1].append(chain)
            for j in _bits(above):
                rec(chain + (j,), above & self.up_mask(j))

        for i in range(self.n):
            rec((i,), self.up_mask(i))
        return out

    # -- dismantling ---------------------------------------------------------

    def dismantle_core(self) -> "FinPoset":
        """Remove beat points (their strict up-set has a minimum or strict
        down-set a maximum) until none remain.

        The core is unique up to isomorphism whatever the order of removal
        (Stong, *Finite topological spaces*, 1966), so up-beat points go
        first, read off the up-rows; the down-rows are read only if more
        than one element is left.  A down-beat point is an up-beat point of
        the opposite order, so both sides use one pass, and the sides
        alternate until neither removes anything.  A poset with a top loses
        every other element to the up side: the maximal elements below the
        top are up-beat points, over and over.
        """
        live = _strip_up_beats(self._up, (1 << self.n) - 1)
        if live & (live - 1):
            rows, other = self._dn, self._up
            while (left := _strip_up_beats(rows, live)) != live:
                live, rows, other = left, other, rows
        return self.restrict(list(_bits(live)))

    def is_dismantlable(self) -> bool:
        return self.n > 0 and self.dismantle_core().n == 1

    def __repr__(self):
        return f"FinPoset(n={self.n})"


def _strip_up_beats(rows: list[int], live: int) -> int:
    """Remove, one at a time, the elements of ``live`` whose strict up-set
    in ``live`` has a minimum, by the reflexive up-rows ``rows``, until no
    such element remains; return what is left.  Elements are tried from
    the smallest up-row, so each is tried after those above it."""
    order = sorted(_bits(live), key=lambda i: rows[i].bit_count())
    changed = True
    while changed:
        changed = False
        for i in order:
            ups = rows[i] & live & ~(1 << i)
            if live >> i & 1 and any(not ups & ~rows[u] for u in _bits(ups)):
                live &= ~(1 << i)
                changed = True
    return live
