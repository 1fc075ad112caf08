import itertools
import random

import networkx as nx
import pytest

from dcx import (
    AmbiguityError,
    Closed,
    DanglingIndexError,
    EmptyFaceSetError,
    OgIso,
    OgPoset,
    OverlapError,
    closure,
    find_iso,
    globe,
    is_hasse_acyclic,
    isomorphisms,
    oriental,
    oriented_hasse,
    paste,
    path,
    point,
    unique_iso,
    validate,
)


def test_validate_point():
    P = validate([1])
    assert P.counts == (1,)
    assert P.dim == 0


def test_validate_arrow():
    P = validate([2, [([0], [1])]])
    assert P.counts == (2, 1)


def test_validate_overlap_rejected():
    with pytest.raises(OverlapError):
        validate([1, [([0], [0])]])


def test_validate_dangling_rejected():
    with pytest.raises(DanglingIndexError):
        validate([1, [([0], [3])]])


def test_validate_empty_face_side_in_regular_mode():
    with pytest.raises(EmptyFaceSetError):
        validate([1, [([0], [])]], regular=True)
    # fine outside regular mode
    validate([1, [([0], [])]])


def test_closure_of_edge_is_whole_arrow():
    arrow = path(1)
    c = closure(arrow.poset, [(1, 0)])
    assert c.size() == 3


def test_closure_in_two_arrows():
    p2 = path(2)
    c = closure(p2.poset, [(1, 0)])
    assert sorted(c.elements()) == [(0, 0), (0, 1), (1, 0)]


def test_closure_empty():
    p2 = path(2)
    assert closure(p2.poset, []).size() == 0


def test_closure_idempotent_monotone(corpus):
    for mol in corpus[:25]:
        P = mol.poset
        top = Closed.full(P)
        again = closure(P, top.elements())
        assert again.masks == top.masks
        for el in list(P.elements())[:6]:
            small = closure(P, [el])
            assert small <= top


def test_delta_on_two_oriental():
    o2 = oriental(2)
    A = o2.as_closed()
    # the output 1-frame of the 2-cell is the length-2 path, the input the long edge
    assert len(A.delta(1, "+")) == 2
    assert len(A.delta(1, "-")) == 1


def test_delta_output_vertex_in_path():
    p2 = path(2)
    c = closure(p2.poset, [(1, 0)])
    assert c.delta(0, "+") == [(0, 1)]


def test_delta_above_dim_empty():
    p2 = path(2)
    assert p2.as_closed().delta(5, "+") == []


def test_boundary_of_globe_is_globe():
    g2 = globe(2)
    b = g2.boundary(1, "-")
    sub, _ = b.extract()
    assert find_iso(sub, path(1).poset) is not None


def test_boundary_of_oriental_input_is_single_edge():
    o2 = oriental(2)
    b = o2.boundary(1, "-")
    sub, _ = b.extract()
    assert find_iso(sub, path(1).poset) is not None


def test_boundary_negative_k_empty():
    o2 = oriental(2)
    assert o2.boundary(-1, "-").size() == 0
    assert o2.boundary(-1, "+").size() == 0


def test_boundary_dimension_property(corpus):
    for mol in corpus[:40]:
        A = mol.as_closed()
        for k in range(-1, mol.dim + 2):
            for alpha in "-+":
                b = A.boundary(k, alpha)
                expect = -1 if k < 0 else min(mol.dim, k)
                assert b.dim == expect


def test_globularity(corpus):
    for mol in corpus[:40]:
        P = mol.poset
        A = P.full_masks()
        for k in range(mol.dim + 1):
            for beta in "-+":
                outer = P.boundary_masks(A, k, beta)
                for j in range(k):
                    for alpha in "-+":
                        assert P.boundary_masks(outer, j, alpha) == P.boundary_masks(
                            A, j, alpha
                        )


def test_find_iso_identity_and_counts():
    g2 = globe(2)
    iso = find_iso(g2.poset, g2.poset)
    assert iso is not None and iso.verify()
    assert find_iso(path(2).poset, path(1).poset) is None


def test_find_iso_oriental_pinning():
    built = paste(path(1), path(1), 0)
    from dcx import atom

    d2 = atom(path(1), built)
    iso = find_iso(oriental(2).poset, d2.poset)
    assert iso is not None and iso.verify()


def test_unique_iso_on_certified_molecules(corpus):
    for mol in corpus:
        if mol.size() > 20:
            continue
        isos = isomorphisms(mol.poset, mol.poset)
        assert len(isos) == 1


def test_oriented_hasse_arrow():
    arrow = path(1)
    edges = set(oriented_hasse(arrow.poset))
    assert ((0, 0), (1, 0)) in edges
    assert ((1, 0), (0, 1)) in edges


def test_hasse_acyclic_globes_and_orientals():
    for k in range(6):
        assert is_hasse_acyclic(globe(k).poset)
    for n in range(6):
        assert is_hasse_acyclic(oriental(n).poset)


def test_hasse_cycle_in_loop_graph():
    loop = validate([2, [([0], [1]), ([1], [0])]])
    assert not is_hasse_acyclic(loop)


def test_hasse_acyclicity_matches_networkx(corpus):
    for mol in corpus[:40]:
        g = nx.DiGraph()
        g.add_nodes_from(mol.poset.elements())
        g.add_edges_from(oriented_hasse(mol.poset))
        assert is_hasse_acyclic(mol.poset) == nx.is_directed_acyclic_graph(g)


def test_canonical_key_iso_invariant():
    from dcx import suspension

    a = suspension(path(2))
    b = paste(globe(2), globe(2), 1)
    assert a.poset.canonical_key() == b.poset.canonical_key()
    assert a.poset.canonical_key() != paste(globe(2), globe(2), 0).poset.canonical_key()


# -- isomorphisms and canonical forms against brute force -------------------------


def random_poset(rng):
    """A small oriented graded poset, often with nontrivial automorphisms."""
    counts = [rng.randint(1, 4)]
    faces = [[]]
    for _ in range(rng.randint(0, 2)):
        level = []
        for _ in range(rng.randint(1, 3)):
            below = list(range(counts[-1]))
            rng.shuffle(below)
            a = rng.randint(0, min(2, len(below)))
            b = rng.randint(a, min(a + 2, len(below)))
            level.append((below[:a], below[a:b]))
        counts.append(len(level))
        faces.append(level)
    return OgPoset(counts, faces)


def relabelled(P, rng):
    """P with the elements of each dimension renumbered at random."""
    perms = [rng.sample(range(c), c) for c in P.counts]
    faces = [[]]
    for d in range(1, len(P.counts)):
        level = [None] * P.counts[d]
        for i, (mn, pl) in enumerate(P.faces[d]):
            level[perms[d][i]] = (
                [perms[d - 1][j] for j in mn],
                [perms[d - 1][j] for j in pl],
            )
        faces.append(level)
    return OgPoset(P.counts, faces)


def brute_isos(P, Q):
    """Every dimension-wise bijection that OgIso.verify accepts."""
    if P.counts != Q.counts:
        return set()
    found = set()
    for perms in itertools.product(*(itertools.permutations(range(c)) for c in P.counts)):
        mapping = {(d, i): (d, perm[i]) for d, perm in enumerate(perms) for i in range(len(perm))}
        if OgIso(P, Q, mapping).verify():
            found.add(frozenset(mapping.items()))
    return found


@pytest.fixture(scope="module")
def random_pairs():
    """Pairs (P, Q, brute-force isomorphisms): Q a relabelled copy of P or
    another random poset with the same counts."""
    rng = random.Random(20261018)
    posets = [random_poset(rng) for _ in range(300)]
    by_counts = {}
    for P in posets:
        by_counts.setdefault(P.counts, []).append(P)
    pairs = []
    for P in posets:
        Q = relabelled(P, rng)
        pairs.append((P, Q, brute_isos(P, Q)))
        R = rng.choice(by_counts[P.counts])
        pairs.append((P, R, brute_isos(P, R)))
    # parallel arrows and isolated points: many automorphisms
    arrows = validate([2, [([0], [1])] * 4])
    points = validate([5])
    for P in (arrows, points):
        pairs.append((P, relabelled(P, rng), brute_isos(P, P)))
    return pairs


def test_random_pairs_include_non_rigid_and_non_isomorphic(random_pairs):
    sizes = [len(isos) for _, _, isos in random_pairs]
    assert sum(n > 1 for n in sizes) >= 50
    assert sum(n == 0 for n in sizes) >= 50
    assert max(sizes) == 120


def test_isomorphisms_match_brute_force(random_pairs):
    for P, Q, expected in random_pairs:
        isos = isomorphisms(P, Q)
        got = [frozenset(iso.mapping.items()) for iso in isos]
        assert len(set(got)) == len(got)
        assert set(got) == expected
        assert all(iso.source is P and iso.target is Q for iso in isos)
        for limit in (1, 2, 3):
            some = isomorphisms(P, Q, limit=limit)
            assert len(some) == min(limit, len(expected))
            assert {frozenset(iso.mapping.items()) for iso in some} <= expected


def test_unique_iso_raises_exactly_when_ambiguous(random_pairs):
    for P, Q, expected in random_pairs:
        if len(expected) > 1:
            with pytest.raises(AmbiguityError):
                unique_iso(P, Q)
        else:
            iso = unique_iso(P, Q)
            assert (iso is None) == (not expected)
            assert iso is None or frozenset(iso.mapping.items()) in expected


def test_canonical_keys_equal_exactly_when_isomorphic(random_pairs):
    for P, Q, expected in random_pairs:
        assert (P.canonical_key() == Q.canonical_key()) == bool(expected)
        key, relabel = P.canonical()
        assert sorted(relabel) == sorted(P.elements())
        for d, c in enumerate(P.counts):
            assert sorted(relabel[(d, i)] for i in range(c)) == list(range(c))


def test_canonical_key_invariant_under_relabelling(corpus):
    rng = random.Random(5)
    for mol in corpus:
        for _ in range(3):
            Q = relabelled(mol.poset, rng)
            assert Q.canonical_key() == mol.key
            iso = find_iso(mol.poset, Q)
            assert iso is not None and iso.verify()
