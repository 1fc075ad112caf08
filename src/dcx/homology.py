"""Order complexes and reduced integral homology via Smith normal form.

All arithmetic is exact (Python integers).  The order complex of a poset
has one j-simplex per chain of j + 1 elements; homology is computed from
integral boundary matrices, with torsion read off the Smith diagonal.
"""
from __future__ import annotations

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
    """Invariant factors of an integer matrix (exact, arbitrary precision)."""
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (best is None or abs(v) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        while True:
            reduced = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        reduced = False
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        reduced = False
            if reduced:
                break
        diag.append(abs(A[t][t]))
        t += 1
    # normalise to a divisibility chain (preserves equivalence class)
    import math

    changed = True
    while changed:
        changed = False
        for a in range(len(diag)):
            for b in range(a + 1, len(diag)):
                if diag[b] % diag[a]:
                    g = math.gcd(diag[a], diag[b])
                    diag[a], diag[b] = g, diag[a] * diag[b] // g
                    changed = True
    return diag


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
    """
    if P.n == 0:
        return HomologyReport(False, [], [], False, empty=True, size=0)
    core = P.dismantle_core()
    report = homology(nerve(core))
    report.dismantlable = core.n == 1
    report.size = P.n
    return report
