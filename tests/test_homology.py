import itertools
import random

from dcx import FinPoset, enumerate_sd, homology, nerve, poset_homology, smith_diagonal
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


def test_projective_plane_torsion():
    # minimal triangulation of the real projective plane: six vertices,
    # known reduced homology: H0 = 0, H1 = Z/2, H2 = 0
    from dcx.homology import OrderComplex, homology as hom

    triangles = RP2_TRIANGLES
    verts = sorted({v for t in triangles for v in t})
    vid = {v: i for i, v in enumerate(verts)}
    edges = sorted({tuple(sorted((a, b))) for t in triangles for a in t for b in t if a < b})
    K = OrderComplex(
        [
            [(vid[v],) for v in verts],
            [tuple(vid[v] for v in e) for e in edges],
            [tuple(vid[v] for v in t) for t in triangles],
        ]
    )
    rep = hom(K)
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

