import itertools
import random

from dcx import FinPoset, homology, nerve, poset_homology, smith_diagonal


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

    triangles = [
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
    assert four_cycle().isomorphic(
        FinPoset(list("wxyz"), [[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    )
    assert not four_cycle().isomorphic(chain_poset(4))


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
