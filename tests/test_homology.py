import itertools
import math
import random

from dcx import FinPoset, enumerate_sd, homology, nerve, poset_homology, smith_diagonal
from dcx.homology import OrderComplex, _boundary_matrix
from dcx.ogposet import _bits
from conftest import differential_inputs, posets_isomorphic

# a minimal triangulation of the real projective plane on six vertices
RP2_TRIANGLES = [
    (1, 2, 3),
    (1, 2, 4),
    (1, 3, 5),
    (1, 4, 6),
    (1, 5, 6),
    (2, 3, 6),
    (2, 4, 5),
    (2, 5, 6),
    (3, 4, 5),
    (3, 4, 6),
]


def chain_poset(n):
    return FinPoset(list(range(n)), [[i <= j for j in range(n)] for i in range(n)])


def antichain(n):
    return FinPoset(list(range(n)), [[i == j for j in range(n)] for i in range(n)])


def four_cycle():
    # a, b < c, d
    leq = [
        [1, 0, 1, 1],
        [0, 1, 1, 1],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    return FinPoset(["a", "b", "c", "d"], leq)


def test_smith_diagonal_basics():
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[2, 4], [4, 4]]) == [2, 4]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[6]]) == [6]


def dense_smith_oracle(rows: list[list[int]]) -> list[int]:
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


def _determinant(M: list[list[int]]) -> int:
    """The determinant of a square integer matrix by Bareiss' fraction-free
    elimination: every division is exact."""
    M = [list(row) for row in M]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap], sign = M[swap], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def determinantal_oracle(rows: list[list[int]]) -> list[int]:
    """Invariant factors as ratios of determinantal divisors: D_k is the gcd
    of all k x k minors, the rank r is the largest k with D_k nonzero, and
    the k-th invariant factor is D_k / D_(k-1) for k = 1..r."""
    m, n = len(rows), len(rows[0]) if rows else 0
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        D = 0
        for I in itertools.combinations(range(m), k):
            for J in itertools.combinations(range(n), k):
                D = math.gcd(D, _determinant([[rows[i][j] for j in J] for i in I]))
        if not D:
            break
        divisors.append(D)
    return [b // a for a, b in zip(divisors, divisors[1:])]


# the dense loop does not finish on this matrix in a minute: its entries
# have hundreds of bits once three pivots are done
DENSE_STALL = [
    [-9, -3, 0, -22, -11, -10],
    [-11, 26, -16, 21, 16, 19],
    [4, 0, -4, -22, 29, 0],
    [2, 19, 13, -10, -27, 18],
    [12, -7, 17, -8, 17, 25],
]


def test_smith_diagonal_matches_the_dense_loop_on_boundary_matrices(corpus, horiz, vert):
    """Every boundary matrix of the nerves built in this module, and of the
    Sd posets of ``differential_inputs`` with at most 200 chains; only
    Sd(path(6)) and Sd(path(7)) at {0} have more, 1,081 and 9,365, and the
    dense loop takes over a second on them."""
    posets = [chain_poset(4), antichain(3), four_cycle(), projective_plane_faces()]
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 9)
        leq = _random_order(rng, n)
        posets.append(FinPoset(list(range(n)), [[(i, j) in leq for j in range(n)] for i in range(n)]))
    complexes = [nerve(P) for P in posets] + [rp2_complex()]
    for mol, S in differential_inputs(corpus, horiz, vert):
        K = nerve(enumerate_sd(mol, S).sd())
        if sum(map(len, K.simplices)) <= 200:
            complexes.append(K)
    ranks = set()
    for K in complexes:
        for M in (_boundary_matrix(K, j) for j in range(1, len(K.simplices))):
            diag = smith_diagonal(M)
            assert diag == dense_smith_oracle(M), M
            ranks.add(len(diag))
    assert max(ranks) > 20


def test_smith_diagonal_matches_determinantal_divisors():
    rng = random.Random(17)
    matrices = [DENSE_STALL, [[4, 0, 0], [0, 6, 0], [0, 0, 10]], [[0, 0, 0]]]
    for density in (0.2, 0.5, 1.0):
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.randint(-30, 30) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
            matrices.append(rows)
    chains = set()
    for rows in matrices:
        diag = smith_diagonal(rows)
        assert diag == determinantal_oracle(rows), rows
        assert all(b % a == 0 for a, b in zip(diag, diag[1:])), rows
        chains.add(tuple(d > 1 for d in diag))
    assert smith_diagonal(DENSE_STALL) == [1, 1, 1, 1, 1]
    assert smith_diagonal([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 2, 60]
    assert any(any(c) for c in chains) and () in chains


def test_nerve_of_antichain():
    K = nerve(antichain(2))
    assert [len(level) for level in K.simplices] == [2]
    rep = homology(K)
    assert not rep.connected
    assert rep.reduced_betti == [1]


def test_nerve_of_chain_is_cone():
    K = nerve(chain_poset(3))
    rep = homology(K)
    assert rep.connected
    assert all(b == 0 for b in rep.reduced_betti)
    assert rep.dismantlable


def test_four_cycle_is_circle():
    rep = homology(nerve(four_cycle()))
    assert rep.connected
    assert rep.reduced_betti == [0, 1]
    assert not rep.dismantlable
    assert four_cycle().dismantle_core().n == 4


def test_poset_homology_matches_direct():
    for P in (chain_poset(4), antichain(3), four_cycle()):
        direct = homology(nerve(P))
        via_core = poset_homology(P)
        nb = max(len(direct.reduced_betti), len(via_core.reduced_betti))

        def pad(xs):
            return list(xs) + [0] * (nb - len(xs))

        assert pad(direct.reduced_betti) == pad(via_core.reduced_betti)
        assert direct.connected == via_core.connected


def test_poset_with_maximum_is_dismantlable():
    leq = [
        [1, 0, 1],
        [0, 1, 1],
        [0, 0, 1],
    ]
    P = FinPoset(["a", "b", "t"], leq)
    rep = poset_homology(P)
    assert rep.dismantlable and rep.connected
    assert all(b == 0 for b in rep.reduced_betti)


def test_empty_poset_reports_empty():
    rep = poset_homology(FinPoset([], []))
    assert rep.empty


def rp2_complex():
    """The simplicial complex of ``RP2_TRIANGLES``, on vertices 0..5."""
    triangles = RP2_TRIANGLES
    verts = sorted({v for t in triangles for v in t})
    vid = {v: i for i, v in enumerate(verts)}
    edges = sorted({tuple(sorted((a, b))) for t in triangles for a in t for b in t if a < b})
    return OrderComplex(
        [
            [(vid[v],) for v in verts],
            [tuple(vid[v] for v in e) for e in edges],
            [tuple(vid[v] for v in t) for t in triangles],
        ]
    )


def test_projective_plane_torsion():
    # minimal triangulation of the real projective plane: six vertices,
    # known reduced homology: H0 = 0, H1 = Z/2, H2 = 0
    rep = homology(rp2_complex())
    assert rep.connected
    assert rep.reduced_betti == [0, 0, 0]
    assert rep.torsion[1] == [2]


def test_finposet_covers_and_tops():
    P = four_cycle()
    assert set(P.covers()) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert P.top() is None and P.bottom() is None
    C = chain_poset(3)
    assert C.bottom() == 0 and C.top() == 2


def test_finposet_isomorphic():
    assert posets_isomorphic(
        four_cycle(),
        FinPoset(list("wxyz"), [[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
    )
    assert not posets_isomorphic(four_cycle(), chain_poset(4))


def test_connected_matches_comparability_graph():
    rng = random.Random(3)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 7)
        less = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        leq = [[i == j or (i, j) in less for j in range(n)] for i in range(n)]
        for k, i, j in itertools.product(range(n), repeat=3):
            leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
        reach, frontier = {0}, [0]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if (leq[i][j] or leq[j][i]) and j not in reach:
                    reach.add(j)
                    frontier.append(j)
        P = FinPoset(list(range(n)), leq)
        connected = len(reach) == n
        seen.add(connected)
        assert homology(nerve(P)).connected == connected
        assert poset_homology(P).connected == connected
    assert seen == {True, False}


def _random_order(rng, n):
    """A random partial order on range(n), as a set of pairs (i, j), i <= j."""
    leq = {(i, i) for i in range(n)}
    leq |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    for k, i, j in itertools.product(range(n), repeat=3):
        if (i, k) in leq and (k, j) in leq:
            leq.add((i, j))
    return leq


def test_restrict_bottom_top_and_down_sets_match_their_definitions():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 12)
        leq = _random_order(rng, n)
        P = FinPoset([f"e{i}" for i in range(n)], [[(i, j) in leq for j in range(n)] for i in range(n)])
        start = rng.randrange(n)
        keeps = [[], list(range(start, rng.randint(start + 1, n)))]
        keeps.append(sorted(rng.sample(range(n), rng.randint(1, n))))
        keeps += [[j for j in range(n) if j != i] for i in range(n)]
        for keep in keeps:
            Q = P.restrict(keep)
            m = len(keep)
            rel = {(a, b) for a in range(m) for b in range(m) if (keep[a], keep[b]) in leq}
            assert Q.n == m and Q.elements == [f"e{i}" for i in keep]
            for a in range(m):
                ups = sum(1 << b for b in range(m) if (a, b) in rel and b != a)
                downs = sum(1 << b for b in range(m) if (b, a) in rel and b != a)
                assert (Q.up_mask(a), Q.down_mask(a)) == (ups, downs), (n, keep, a)
            bottoms = [a for a in range(m) if all((a, b) in rel for b in range(m))]
            tops = [a for a in range(m) if all((b, a) in rel for b in range(m))]
            assert Q.bottom() == (bottoms[0] if bottoms else None), (n, keep)
            assert Q.top() == (tops[0] if tops else None), (n, keep)


def projective_plane_faces():
    """The face poset of ``RP2_TRIANGLES``: its simplices by inclusion."""
    faces = sorted(
        {frozenset(c) for t in RP2_TRIANGLES for r in (1, 2, 3) for c in itertools.combinations(t, r)},
        key=lambda f: (len(f), sorted(f)),
    )
    return FinPoset.from_leq(faces, lambda a, b: a <= b)


def _two_sided_core(P):
    """Oracle for dismantling: try each live element in index order for a
    strict live up-set with a minimum or down-set with a maximum, remove it
    at once, and sweep again until a sweep removes nothing."""

    def beat(i, live):
        for rows in (P.up_mask, P.down_mask):
            near = rows(i) & live
            if any(not near & ~rows(u) & ~(1 << u) for u in _bits(near)):
                return True
        return False

    live = (1 << P.n) - 1
    changed = True
    while changed and live & (live - 1):
        changed = False
        for i in _bits(live):
            if live & (live - 1) and beat(i, live & ~(1 << i)):
                live &= ~(1 << i)
                changed = True
    return P.restrict(list(_bits(live)))


def test_dismantle_core_matches_two_sided_oracle(corpus, horiz, vert):
    posets = [four_cycle(), projective_plane_faces()]
    for mol, S in differential_inputs(corpus, horiz, vert):
        sdp = enumerate_sd(mol, S)
        posets += [sdp.poset, sdp.sd()]
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 12)
        leq = _random_order(rng, n)
        posets.append(FinPoset(list(range(n)), [[(i, j) in leq for j in range(n)] for i in range(n)]))
    cores = set()
    for P in posets:
        core, oracle = P.dismantle_core(), _two_sided_core(P)
        assert posets_isomorphic(core, oracle), (P, core, oracle)
        assert P.is_dismantlable() == (P.n > 0 and oracle.n == 1), P
        cores.add(core.n)
    assert projective_plane_faces().dismantle_core().n == 31
    assert {0, 1, 4} <= cores and max(cores) > 4

