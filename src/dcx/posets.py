"""Finite posets: relation tables, covers, chains, dismantling.

Relations are stored as bitmask rows, which keeps beat-point dismantling
and cover extraction fast on posets with a few hundred elements.  The
up-set rows are the relation; the down-set rows are their transpose, built
on first use, since ``bottom``, ``leq`` and ``restrict`` read only the
up-rows.  ``restrict`` cuts each up-row into the runs of consecutive kept
indices and shifts each run into place.
"""
from __future__ import annotations

import functools
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
        """The element above all others: its down-row is full."""
        full = (1 << self.n) - 1
        return self._dn.index(full) if full in self._dn else None

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i."""
        out = []
        for i in range(self.n):
            ups = self.up_mask(i)
            for j in _bits(ups):
                if not (ups & self.down_mask(j)):
                    out.append((i, j))
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

    def _beat_in(self, i: int, live: int) -> bool:
        ups = self.up_mask(i) & live
        for u in _bits(ups):
            if not (ups & ~self._up[u]):
                return True
        dns = self.down_mask(i) & live
        for u in _bits(dns):
            if not (dns & ~self._dn[u]):
                return True
        return False

    def dismantle_core(self) -> "FinPoset":
        """Remove beat points (their strict up-set has a minimum or strict
        down-set a maximum) until none remain."""
        live = (1 << self.n) - 1
        count = self.n
        changed = True
        while count > 1 and changed:
            changed = False
            for i in list(_bits(live)):
                if count <= 1:
                    break
                if self._beat_in(i, live & ~(1 << i)):
                    live &= ~(1 << i)
                    count -= 1
                    changed = True
        return self.restrict(list(_bits(live)))

    def is_dismantlable(self) -> bool:
        return self.n > 0 and self.dismantle_core().n == 1

    def __repr__(self):
        return f"FinPoset(n={self.n})"
