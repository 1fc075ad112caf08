"""Order complexes and reduced integral homology via Smith normal form.

All arithmetic is exact (Python integers).  The order complex of a poset
has one j-simplex per chain of j + 1 elements; homology is computed from
integral boundary matrices, with ranks and torsion read off their
invariant factors.  :func:`smith_diagonal` finds these by one elimination
over sparse rows that always pivots on an entry of least magnitude, so
boundary matrices of a thousand rows take milliseconds and entries stay
small.  :func:`poset_homology` dismantles a poset first, so a poset whose
core is one point builds no boundary matrix at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .posets import FinPoset


@dataclass
class OrderComplex:
    """Simplices grouped by dimension; vertices are poset indices."""

    simplices: list[list[tuple[int, ...]]]
    poset: Optional[FinPoset] = None

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def n_vertices(self) -> int:
        return len(self.simplices[0]) if self.simplices else 0


@dataclass
class HomologyReport:
    connected: bool
    reduced_betti: list[int]
    torsion: list[list[int]]
    dismantlable: bool
    empty: bool = False
    size: int = 0

    def is_acyclic(self) -> bool:
        """Connected with vanishing reduced integral homology."""
        return (
            self.connected
            and all(b == 0 for b in self.reduced_betti)
            and all(not t for t in self.torsion)
        )

    def to_json(self) -> dict:
        return {
            "connected": self.connected,
            "reduced_betti": list(self.reduced_betti),
            "torsion": [list(t) for t in self.torsion],
            "dismantlable": self.dismantlable,
            "empty": self.empty,
            "size": self.size,
        }


def nerve(P: FinPoset) -> OrderComplex:
    """The order complex: simplices are the nonempty chains of P."""
    return OrderComplex(P.chains(), poset=P)


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Invariant factors of an integer matrix (exact, arbitrary precision).

    Returns the nonzero diagonal of the Smith normal form, one entry per
    unit of rank, in a divisibility chain: the units first, then the
    entries above 1, each dividing the next.  The chain is unique, so any
    unimodular reduction to a diagonal gives it.

    The matrix is kept sparse: each row holds its nonzero entries, and
    each column the set of rows with an entry in it.  Each step pivots on
    an entry of least magnitude, the first unit found or else the minimum,
    and subtracts multiples of the pivot row from the other rows of the
    pivot column.  Once the pivot is alone in its column, it reduces the
    other entries of its row modulo the pivot; these are column operations
    that touch only that row.  A pivot alone in its row and its column is a
    diagonal entry, and its row and column are retired.

    Every step is unimodular, so the diagonal has the invariant factors of
    the input.  The loop ends: a step either retires a row and a column, or
    leaves a nonzero remainder smaller than its pivot, which was an entry
    of least magnitude, and so strictly lowers the least magnitude, a
    positive integer.  So retirements come at most that many steps apart,
    and there are no more of them than rows.  Choosing the least entry
    again, rather than swapping a remainder into the pivot's place, also
    keeps the entries small (Dumas, Saunders and Villard, *On efficient
    sparse integer matrix Smith normal form computations*, 2001).
    """
    A = {r: {c: v for c, v in enumerate(row) if v} for r, row in enumerate(rows) if any(row)}
    cols: dict[int, set[int]] = {}
    for r, row in A.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    diag: list[int] = []
    while A:
        units = ((r, c) for r, row in A.items() for c, v in row.items() if v in (1, -1))
        i, j = next(units, None) or min(
            ((r, c) for r, row in A.items() for c in row), key=lambda rc: abs(A[rc[0]][rc[1]])
        )
        pivot_row, p = A[i], A[i][j]
        for r in cols[j] - {i}:
            row, q = A[r], A[r][j] // p
            for c, v in pivot_row.items():
                w = row.get(c, 0) - q * v
                if w:
                    row[c] = w
                    cols[c].add(r)
                else:
                    del row[c]
                    cols[c].discard(r)
            if not row:
                del A[r]
        if len(cols[j]) > 1:
            continue
        for c in [c for c in pivot_row if c != j]:
            pivot_row[c] %= p
            if not pivot_row[c]:
                del pivot_row[c]
                cols[c].discard(i)
        if len(pivot_row) == 1:
            del A[i], cols[j]
            diag.append(abs(p))
    chain: list[int] = []
    for d in [d for d in diag if d > 1]:
        for t, c in enumerate(chain):
            g = math.gcd(c, d)
            chain[t], d = g, c * d // g
        chain.append(d)
    return [1] * (len(diag) - len(chain)) + chain


def _boundary_matrix(K: OrderComplex, j: int) -> list[list[int]]:
    """Matrix of the boundary map from j-simplices to (j-1)-simplices."""
    lower = {s: idx for idx, s in enumerate(K.simplices[j - 1])}
    rows = [[0] * len(K.simplices[j]) for _ in K.simplices[j - 1]]
    for col, s in enumerate(K.simplices[j]):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            rows[lower[face]][col] = 1 if drop % 2 == 0 else -1
    return rows


def homology(K: OrderComplex) -> HomologyReport:
    """Reduced integral homology of a finite simplicial complex.

    Reduced Betti numbers use the augmented chain complex, so a point has
    all zeros and the empty complex reports ``empty``.  When the complex is
    the nerve of a poset, dismantlability of that poset is reported too.
    """
    if not K.simplices or not K.simplices[0]:
        return HomologyReport(False, [], [], False, empty=True, size=0)
    dims = len(K.simplices)
    ranks = [0] * (dims + 1)
    smiths: list[list[int]] = [[] for _ in range(dims + 1)]
    # augmentation in degree 0
    smiths[0] = [1]
    ranks[0] = 1
    for j in range(1, dims):
        diag = smith_diagonal(_boundary_matrix(K, j))
        smiths[j] = diag
        ranks[j] = len(diag)
    betti = []
    torsion = []
    for j in range(dims):
        free = len(K.simplices[j]) - ranks[j] - ranks[j + 1]
        betti.append(free)
        torsion.append([d for d in smiths[j + 1] if d > 1])
    dismantlable = K.poset.is_dismantlable() if K.poset is not None else False
    return HomologyReport(
        connected=betti[0] == 0,
        reduced_betti=betti,
        torsion=torsion,
        dismantlable=dismantlable,
        empty=False,
        size=K.n_vertices(),
    )


def poset_homology(P: FinPoset) -> HomologyReport:
    """Homology evidence for a poset, dismantling first.

    Beat-point removal is a deformation retraction, so computing homology
    on the dismantled core is exact and far cheaper on large posets.
    Dismantling removes up-beat points from the up-rows first, so a poset
    with a top, such as the Sd posets of the bench, comes down to one point
    without its down-rows being built.  The core's chains go in without the
    core itself, so that ``homology`` does not dismantle it a second time.
    """
    if P.n == 0:
        return HomologyReport(False, [], [], False, empty=True, size=0)
    core = P.dismantle_core()
    report = homology(OrderComplex(core.chains()))
    report.dismantlable = core.n == 1
    report.size = P.n
    return report
