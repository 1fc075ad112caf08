"""Finite posets: relation tables, covers, isomorphism, dismantling.

Relations are stored as bitmask rows, which keeps beat-point dismantling
and cover extraction fast on posets with a few hundred elements.
"""
from __future__ import annotations

from typing import Callable, Optional

from .ogposet import _bits


class FinPoset:
    """A finite poset given by an element list and a reflexive leq relation."""

    def __init__(self, elements: list, leq_matrix=None, *, up_masks=None):
        self.elements = list(elements)
        self.n = len(self.elements)
        if up_masks is not None:
            self._up = list(up_masks)
        else:
            self._up = [0] * self.n
            for i in range(self.n):
                row = 0
                for j in range(self.n):
                    if leq_matrix[i][j]:
                        row |= 1 << j
                self._up[i] = row
        for i in range(self.n):
            self._up[i] |= 1 << i
        self._dn = [0] * self.n
        for i in range(self.n):
            for j in _bits(self._up[i]):
                self._dn[j] |= 1 << i

    @classmethod
    def from_leq(cls, elements: list, leq: Callable) -> "FinPoset":
        els = list(elements)
        ups = []
        for a in els:
            row = 0
            for j, b in enumerate(els):
                if leq(a, b):
                    row |= 1 << j
            ups.append(row)
        return cls(els, up_masks=ups)

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def comparable(self, i: int, j: int) -> bool:
        return self.leq(i, j) or self.leq(j, i)

    def up_mask(self, i: int) -> int:
        return self._up[i] & ~(1 << i)

    def down_mask(self, i: int) -> int:
        return self._dn[i] & ~(1 << i)

    def up_set(self, i: int) -> list[int]:
        return list(_bits(self.up_mask(i)))

    def down_set(self, i: int) -> list[int]:
        return list(_bits(self.down_mask(i)))

    def maximal(self) -> list[int]:
        return [i for i in range(self.n) if not self.up_mask(i)]

    def minimal(self) -> list[int]:
        return [i for i in range(self.n) if not self.down_mask(i)]

    def bottom(self) -> Optional[int]:
        full = (1 << self.n) - 1
        for i in self.minimal():
            if self._up[i] == full:
                return i
        return None

    def top(self) -> Optional[int]:
        full = (1 << self.n) - 1
        for i in self.maximal():
            if self._dn[i] == full:
                return i
        return None

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
        pos = {old: new for new, old in enumerate(keep)}
        ups = []
        for old in keep:
            row = 0
            for j in _bits(self._up[old]):
                if j in pos:
                    row |= 1 << pos[j]
            ups.append(row)
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

    # -- isomorphism -----------------------------------------------------------

    def isomorphic(self, other: "FinPoset") -> bool:
        if self.n != other.n:
            return False

        def popcount(x):
            return bin(x).count("1")

        inv_s = [(popcount(self.down_mask(i)), popcount(self.up_mask(i))) for i in range(self.n)]
        inv_o = [(popcount(other.down_mask(i)), popcount(other.up_mask(i))) for i in range(other.n)]
        if sorted(inv_s) != sorted(inv_o):
            return False
        cand = {
            i: [j for j in range(other.n) if inv_o[j] == inv_s[i]]
            for i in range(self.n)
        }
        order = sorted(range(self.n), key=lambda i: len(cand[i]))
        mapping: dict[int, int] = {}
        used: set[int] = set()

        def rec(pos: int) -> bool:
            if pos == self.n:
                return True
            i = order[pos]
            for j in cand[i]:
                if j in used:
                    continue
                ok = True
                for i2, j2 in mapping.items():
                    if self.leq(i, i2) != other.leq(j, j2) or self.leq(i2, i) != other.leq(j2, j):
                        ok = False
                        break
                if not ok:
                    continue
                mapping[i] = j
                used.add(j)
                if rec(pos + 1):
                    return True
                del mapping[i]
                used.discard(j)
            return False

        return rec(0)

    def __repr__(self):
        return f"FinPoset(n={self.n})"
