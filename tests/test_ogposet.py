import itertools
import random
from pathlib import Path

import networkx as nx
import pytest

from dcx import (
    AmbiguityError,
    Closed,
    DanglingIndexError,
    DcxError,
    OgIso,
    OgPoset,
    OverlapError,
    PreconditionError,
    SemiSimplicialSet,
    closure,
    enumerate_molecules,
    find_iso,
    globe,
    hasse_cycle,
    import_ssset,
    is_hasse_acyclic,
    isomorphisms,
    molecule_iso,
    oriental,
    oriented_hasse,
    paste,
    path,
    point,
    unique_iso,
    validate,
)
from dcx import ogposet
from dcx.ogposet import MINUS, PLUS, _bits, closed_rows, down_sets, find_cycle, record_iso
from dcx.serialize import loads_ogposet
from conftest import oracle_canonical_form, oracle_find_iso, oracle_isomorphisms
from test_golden import _symmetric_posets

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


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


def test_validate_accepts_an_empty_face_side():
    validate([1, [([0], [])]])


def test_validate_reads_0_element_entries():
    """A 0-element's entry has two empty sides, however it is written."""
    assert validate([[{}, {"-": []}, ([], []), [[], []]]]).counts == (4,)
    for entry in ({"-": [0], "+": [1]}, ([], [0]), -1, [[]]):
        with pytest.raises(DcxError, match=r"element \(0,0\) has face entry"):
            validate([[entry], [([0], [])]])


def test_validate_refuses_a_face_entry_key_other_than_the_two_sides():
    """A mapping entry has the keys "-" and "+" and no other, so a stray key
    or a misspelt side is refused, naming the element and the key."""
    assert validate([[{}, {}], [{"-": [0], "+": [1]}, {"+": [0]}]]).counts == (2, 2)
    cases = [
        ([[{}, {}], [{"-": [0], "+": [1], "junk": 1}]], "(1,0)", "'junk'"),
        ([[{}, {}], [([0], [1]), {"-": [0], "+ ": [1]}]], "(1,1)", "'+ '"),
        ([[{}, {"x": 1}]], "(0,1)", "'x'"),
        ([[{}], [{0: [0]}]], "(1,0)", "0"),
    ]
    for raw, el, key in cases:
        with pytest.raises(DcxError) as info:
            validate(raw)
        assert str(info.value) == f"element {el} has face entry key {key}, not '-' or '+'"


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
    # two vertices with edges a -> b and b -> a
    loop = validate([2, [([0], [1]), ([1], [0])]])
    assert not is_hasse_acyclic(loop)
    cycle = hasse_cycle(loop)
    assert len(cycle) > 2 and cycle[0] == cycle[-1]
    edges = set(oriented_hasse(loop))
    assert all(step in edges for step in zip(cycle, cycle[1:]))
    assert set(cycle) == set(loop.elements())
    assert hasse_cycle(oriental(3).poset) is None


def test_hasse_cycle_on_the_opposite_arrows_input():
    # two arrows between two points, one each way: the golden non-molecule
    P = loads_ogposet((INPUTS / "opposite.json").read_text(encoding="utf-8"))
    cycle = hasse_cycle(P)
    assert cycle == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]
    edges = set(oriented_hasse(P))
    assert all(step in edges for step in zip(cycle, cycle[1:]))


def test_find_cycle_matches_networkx():
    rng = random.Random(5)
    cyclic = loops = 0
    for _ in range(500):
        n = rng.randint(0, 9)
        density = rng.choice([0.05, 0.15, 0.3])
        rows = [sum(1 << q for q in range(n) if rng.random() < density) for _ in range(n)]
        within = rng.choice([(1 << n) - 1, rng.getrandbits(n) if n else 0])
        g = nx.DiGraph()
        g.add_nodes_from(_bits(within))
        g.add_edges_from((p, q) for p in _bits(within) for q in _bits(rows[p] & within))
        cycle = find_cycle(rows, within)
        assert (cycle is None) == nx.is_directed_acyclic_graph(g)
        if cycle is not None:
            # a closed walk along edges, one self-loop at least as long as two
            assert len(cycle) >= 2 and cycle[0] == cycle[-1]
            assert all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:]))
            cyclic += 1
            loops += len(cycle) == 2
    assert cyclic > 100 and loops > 20


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


def extracted_record(P, masks):
    """The canonical record of a closed subset by the former route: the
    subset extracted as a standalone poset, its canonical form, and its
    elements sorted by canonical index and sent back to P."""
    Q, to_ambient = P.extract(masks)
    key, relabel = Q.canonical()
    order = sorted(Q.elements(), key=lambda el: (el[0], relabel[el]))
    return key, tuple(to_ambient[el] for el in order)


def test_canon_record_is_the_extracted_canonical_form(monkeypatch, corpus):
    """The record read in place equals extraction followed by the canonical
    form, key and element order, on every boundary at every (k, alpha),
    every element closure and the empty subset, each on a fresh copy.  The
    posets include the 162 built by importing the 4-simplex and by the
    max_cells=2 and max_cells=3 queries over it."""
    built = []
    init = OgPoset.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(OgPoset, "__init__", recording)
    X = import_ssset(SemiSimplicialSet.standard_simplex(4))
    assert len(enumerate_molecules(X, 2)) == 79 and len(enumerate_molecules(X, 3)) == 90
    assert len(built) == 162
    monkeypatch.undo()
    cyclic = [loads_ogposet((INPUTS / f"{n}.json").read_text()) for n in ("cyclic151", "cyclic206")]
    posets = [m.poset for m in corpus[:40]] + [oriental(n).poset for n in range(7)]
    posets += cyclic + built
    checked = 0
    for P in posets:
        fresh = OgPoset(P.counts, P.faces)
        full = P.full_masks()
        subsets = {0, full}
        for k in range(-1, P.dim + 1):
            subsets |= {P.boundary_masks(full, k, alpha) for alpha in (MINUS, PLUS)}
        subsets |= set(P.cl_el)
        for m in sorted(subsets):
            assert fresh.canon_record(m)[:2] == extracted_record(P, m), (P, m)
            checked += 1
    assert checked > 2000


def test_verify_rejects_keys_and_values_that_are_not_elements():
    P, Q = validate([1]), validate([1])
    assert OgIso(P, Q, {(0, 0): (0, 0)}).verify()
    assert not OgIso(P, Q, {(0, 5): (0, 7)}).verify()
    assert not OgIso(P, Q, {(0, 5): (0, 0)}).verify()
    assert not OgIso(P, Q, {(0, 0): (0, 7)}).verify()
    arrow = validate([2, [([0], [1])]])
    ends = {(0, 0): (0, 0), (0, 1): (0, 1)}
    assert OgIso(arrow, arrow, {**ends, (1, 0): (1, 0)}).verify()
    assert not OgIso(arrow, arrow, {**ends, (1, 0): (1, 3)}).verify()
    assert not OgIso(arrow, arrow, {**ends, (1, 3): (1, 0)}).verify()


def test_isomorphisms_limit_zero_searches_nothing_and_negative_is_refused(monkeypatch):
    P = globe(2).poset
    assert len(isomorphisms(P, P, limit=1)) == 1

    def no_search(counts, faces):
        raise AssertionError("searched with limit 0")

    monkeypatch.setattr(ogposet, "_canonical_form", no_search)
    assert isomorphisms(P, P, limit=0) == []
    for limit in (-1, -3):
        with pytest.raises(PreconditionError):
            isomorphisms(P, P, limit=limit)


def oracle_refine(nbrs, colors):
    """Colour refinement as every element's signature ranked afresh each
    round, the colour and the sorted colours of each neighbour list."""
    count = len(set(colors))
    while True:
        sigs = [
            (c, *[tuple(sorted([colors[r] for r in ns])) for ns in row])
            for c, row in zip(colors, nbrs)
        ]
        ranking = {sig: n for n, sig in enumerate(sorted(set(sigs)))}
        colors = [ranking[sig] for sig in sigs]
        if len(ranking) == count:
            return colors
        count = len(ranking)


def test_refinement_matches_the_oracle(monkeypatch, corpus, random_pairs):
    """Every refinement the searches make returns the oracle's colours."""
    refine = ogposet._refine
    calls = []

    def checked(nbrs, colors):
        expected = oracle_refine(nbrs, colors)
        got = refine(nbrs, colors)
        assert got == expected
        calls.append(len(colors))
        return got

    monkeypatch.setattr(ogposet, "_refine", checked)

    def made(run) -> int:
        before = len(calls)
        run()
        return len(calls) - before

    def fresh(P):
        return OgPoset(P.counts, P.faces)

    def corpus_keys():
        for mol in corpus:
            assert fresh(mol.poset).canonical_key() == mol.key

    def pair_isos():
        for P, Q, expected in random_pairs:
            assert len(isomorphisms(fresh(P), fresh(Q))) == len(expected)

    def simplex_molecules():
        X = import_ssset(SemiSimplicialSet.standard_simplex(3))
        assert enumerate_molecules(X, 2)

    arrows = validate([2, [([0], [1])] * 6])
    points = validate([40])

    def symmetric():
        assert len(isomorphisms(arrows, fresh(arrows))) == 720
        assert fresh(arrows).canonical_key() == arrows.canonical_key()
        assert find_iso(points, fresh(points)) is not None

    for run in (corpus_keys, pair_isos, simplex_molecules, symmetric):
        assert made(run) > 0
    # the 40 points, the largest colouring, were refined too; no pair is
    assert max(calls) == 40


# -- the canonical search against the searches it replaced ---------------------


def antichains_and_arrows(top):
    """Isolated points and parallel arrows between two points, 1 to ``top`` of
    each."""
    for n in range(1, top + 1):
        yield validate([n])
        yield validate([2, [([0], [1])] * n])


def test_isomorphisms_match_the_pair_search(random_pairs, corpus):
    """``isomorphisms`` reads its answers off two canonical forms; the joint
    search of the pair, which it replaced, is the oracle.  The two list the
    isomorphisms in different orders, so sets are compared."""
    rng = random.Random(43)
    posets = [m.poset for m in corpus] + list(_symmetric_posets())
    posets += antichains_and_arrows(6)
    pairs = [(P, Q) for P, Q, _ in random_pairs] + [(P, relabelled(P, rng)) for P in posets]
    ambiguous = most = 0
    for P, Q in pairs:
        expected = {frozenset(iso.mapping.items()) for iso in oracle_isomorphisms(P, Q)}
        most = max(most, len(expected))
        got = [frozenset(iso.mapping.items()) for iso in isomorphisms(P, Q)]
        assert len(set(got)) == len(got) and set(got) == expected, (P, Q)
        for limit in (1, 2, 3):
            some = [frozenset(iso.mapping.items()) for iso in isomorphisms(P, Q, limit=limit)]
            assert len(set(some)) == len(some) == min(limit, len(expected))
            assert set(some) <= expected
        if len(expected) > 1:
            ambiguous += 1
            with pytest.raises(AmbiguityError):
                unique_iso(P, Q)
        else:
            assert (unique_iso(P, Q) is None) == (not expected)
    assert ambiguous > 100 and most == 720


def test_canonical_form_matches_the_all_leaves_search(corpus):
    """Pruning by automorphisms keeps the key and the order of the search
    that explores every leaf, byte for byte, and each generator it returns
    is an automorphism.  The posets are the corpus, the boundaries and
    element closures of its first 40 molecules, extracted, the symmetric
    posets of the library digest, and isolated points and parallel arrows
    up to 7."""
    posets = [m.poset for m in corpus] + list(_symmetric_posets())
    posets += antichains_and_arrows(7)
    for mol in corpus[:40]:
        P, full = mol.poset, mol.poset.full_masks()
        subsets = set(P.cl_el)
        for k in range(-1, P.dim + 1):
            subsets |= {P.boundary_masks(full, k, alpha) for alpha in (MINUS, PLUS)}
        posets += [P.extract(m)[0] for m in sorted(subsets)]
    generators = 0
    for P in posets:
        key, order, gens = ogposet._canonical_form(P.counts, P.faces)
        assert (key, order) == oracle_canonical_form(P.counts, P.faces), P
        for g in gens:
            assert OgIso(P, P, {el: P._els[g[p]] for p, el in enumerate(P._els)}).verify()
        generators += len(gens)
    assert len(posets) > 900 and generators > 100


def test_canonical_search_is_pruned_by_its_automorphisms(monkeypatch):
    """The search that explores every leaf refines 69,281 times for the
    key of 8 isolated points and 8,660 times for 7 parallel arrows; pruned
    by the automorphisms it finds, the search refines a few dozen times."""
    refine = ogposet._refine
    calls = []

    def counted(nbrs, colors):
        calls.append(len(colors))
        return refine(nbrs, colors)

    monkeypatch.setattr(ogposet, "_refine", counted)
    for P in (validate([8]), validate([2, [([0], [1])] * 7])):
        calls.clear()
        P.canonical_key()
        assert 0 < len(calls) <= 100, (P, len(calls))


def test_repeated_isomorphism_queries_search_each_poset_once(monkeypatch):
    """``isomorphisms``, ``unique_iso`` and ``molecule_iso`` read the
    records memoised on each poset, so five queries on one pair of posets
    with four parallel arrows and three on one pair of globes run one
    canonical search per poset, four in all."""
    form = ogposet._canonical_form
    searches = []

    def counted(counts, faces):
        searches.append(tuple(counts))
        return form(counts, faces)

    monkeypatch.setattr(ogposet, "_canonical_form", counted)
    P = validate([2, [([0], [1])] * 4])
    Q = relabelled(P, random.Random(3))
    assert len(isomorphisms(P, Q)) == 24
    for limit in (1, 2, 3):
        assert len(isomorphisms(P, Q, limit=limit)) == limit
    with pytest.raises(AmbiguityError):
        unique_iso(P, Q)
    U, V = globe(2), globe(2)
    for _ in range(3):
        assert molecule_iso(U, V) is not None
    assert searches == [(2, 4), (2, 4), (2, 2, 1), (2, 2, 1)]


def test_record_iso_matches_the_pair_search(corpus):
    """``record_iso`` reads an isomorphism of two closed subsets off their
    records.  Each subset is read in place against a relabelled copy of its
    extract and against a relabelled copy of a subset with the same counts:
    the whole symmetric posets of the library digest, the corpus, and the
    boundaries of the first 40 molecules of the corpus.  The map is one that
    ``OgIso.verify`` accepts, and there is none exactly when the pair search
    finds none."""
    rng = random.Random(44)
    subsets = [(P, P.full_masks()) for P in _symmetric_posets()]
    subsets += [(mol.poset, mol.poset.full_masks()) for mol in corpus]
    for mol in corpus[:40]:
        P, full = mol.poset, mol.poset.full_masks()
        for k in range(P.dim):
            subsets += [(P, P.boundary_masks(full, k, alpha)) for alpha in (MINUS, PLUS)]
    by_counts = {}
    for P, m in subsets:
        by_counts.setdefault(P.extract(m)[0].counts, []).append(P.extract(m)[0])
    found = missing = 0
    for P, m in subsets:
        E, to_ambient = P.extract(m)
        for Q in (relabelled(E, rng), relabelled(rng.choice(by_counts[E.counts]), rng)):
            iso = record_iso(P, m, Q, Q.full_masks())
            if oracle_find_iso(E, Q) is None:
                assert iso is None, (P, m, Q)
                missing += 1
            else:
                mapping = {el: iso[to_ambient[el]] for el in E.elements()}
                assert OgIso(E, Q, mapping).verify(), (P, m, Q)
                found += 1
    assert found > 700 and missing > 100, (found, missing)


# -- down-sets of a closed relation ---------------------------------------


def warshall(rows):
    """Reflexive-transitive closure on a boolean matrix, as bitmask rows."""
    n = len(rows)
    reach = [[p == q or bool(rows[p] >> q & 1) for q in range(n)] for p in range(n)]
    for m in range(n):
        for p in range(n):
            for q in range(n):
                reach[p][q] = reach[p][q] or (reach[p][m] and reach[m][q])
    return [sum(1 << q for q in range(n) if reach[p][q]) for p in range(n)]


def brute_down_sets(need, within):
    """Every subset of ``within`` holding ``need[p] & within`` for each
    member p, by a scan of all bitmasks in increasing order."""
    return [
        s
        for s in range(within + 1)
        if s & ~within == 0 and all(need[p] & within & ~s == 0 for p in _bits(s))
    ]


def random_relations(seed, count=300):
    """Random relations on up to 8 points, cycles included, each with a full
    and a convex ``within``: the difference of two down-sets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        density = rng.choice([0.1, 0.25, 0.5])
        rows = [
            sum(1 << q for q in range(n) if q != p and rng.random() < density)
            for p in range(n)
        ]
        need = warshall(rows)

        def down_set(chance):
            acc = 0
            for p in range(n):
                if rng.random() < chance:
                    acc |= need[p]
            return acc

        yield rows, need, (1 << n) - 1
        yield rows, need, down_set(0.5) & ~down_set(0.15)


def test_closed_rows_is_warshall():
    for rows, need, within in random_relations(1):
        n = len(rows)
        assert closed_rows(rows, (1 << n) - 1) == need
        # on a part of the positions: the closure of the induced relation
        induced = warshall([row & within if within >> p & 1 else 0 for p, row in enumerate(rows)])
        assert closed_rows(rows, within) == [
            induced[p] if within >> p & 1 else 0 for p in range(n)
        ]
    assert closed_rows([], 0) == []


def test_down_sets_match_brute_force():
    cyclic = 0
    for rows, need, within in random_relations(2):
        got = list(down_sets(need, within))
        assert got == brute_down_sets(need, within)
        assert got[0] == 0 and got == sorted(set(got))
        n = len(need)
        cyclic += any(need[q] >> p & 1 for p in range(n) for q in _bits(need[p]) if q != p)
    assert cyclic > 50
    assert list(down_sets([], 0)) == [0]


def test_down_sets_of_a_convex_set_are_those_of_the_induced_relation():
    for rows, need, within in random_relations(3):
        induced = warshall([row & within if within >> p & 1 else 0 for p, row in enumerate(rows)])
        assert list(down_sets(need, within)) == brute_down_sets(induced, within)


# -- subsets as ints against plain element sets ------------------------------------


def test_non_elements_are_rejected_or_absent():
    mol = globe(2)
    P, A = mol.poset, mol.as_closed()
    # (1, 2) is one past the last edge: as a raw position it would be (2, 0)
    for el in [(-1, 0), (0, -1), (0, 7), (1, 2), (3, 0)]:
        assert el not in A
        with pytest.raises(DanglingIndexError):
            closure(P, [el])
        with pytest.raises(DanglingIndexError):
            Closed.of(P, [(0, 0), el])
    assert (2, 0) in A and (1, 1) in A


def plain_faces(P, el, side=None):
    """The faces of an element, one side ("-" or "+") or both."""
    mn, pl = P.face_sets(el)
    picked = {"-": mn, "+": pl, None: mn + pl}[side]
    return {(el[0] - 1, j) for j in picked}


def plain_closure(P, S):
    out, stack = set(S), list(S)
    while stack:
        for f in plain_faces(P, stack.pop()):
            if f not in out:
                out.add(f)
                stack.append(f)
    return out


def plain_maximal(P, S):
    return {x for x in S if not any(x in plain_faces(P, y) for y in S)}


def plain_delta(P, S, k, alpha):
    """Dimension-k members with no coface in S having them on the other side."""
    other = "+" if alpha == "-" else "-"
    return {x for x in S if x[0] == k and not any(x in plain_faces(P, y, other) for y in S)}


def plain_boundary(P, S, k, alpha):
    if k < 0:
        return set()
    low = {x for x in plain_maximal(P, S) if x[0] < k}
    return plain_closure(P, low | plain_delta(P, S, k, alpha))


def plain_frames(P, k):
    """Each element's input and output k-frame: the dimension-k part of the
    "-" and "+" k-boundaries of its closure, which is δ at k of the closure."""
    closures = {x: plain_closure(P, {x}) for x in P.elements()}
    return {x: (plain_delta(P, c, k, "-"), plain_delta(P, c, k, "+")) for x, c in closures.items()}


def plain_level(P, k):
    """The level-k tables as sets, element by element.  Only the elements
    above k, at a level 0 <= k, have rows that are not empty: their flow
    successors among the elements above k, and what a k-split keeps with or
    before them among the elements above k."""
    els = list(P.elements())
    high = {x for x in els if x[0] > k >= 0}
    frames = {x: f if x in high else (set(), set()) for x, f in plain_frames(P, k).items()}
    closures = {x: plain_closure(P, {x}) for x in els}
    succ = {x: {y for y in high if frames[x][1] & frames[y][0]} for x in els}
    need = {
        x: {y for y in high if x in succ[y] or any(z[0] > k for z in closures[x] & closures[y])}
        for x in els
    }
    return {"succ": succ, "need": need}


def plain_connected(P, S):
    if not S:
        return True
    start = min(S)
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for y in S:
            if y not in seen and (y in plain_faces(P, x) or x in plain_faces(P, y)):
                seen.add(y)
                stack.append(y)
    return seen == set(S)


def plain_dim(S):
    return max((d for d, _ in S), default=-1)


def check_extract(P, S):
    Q, amb = P.extract(P.el_masks(S))
    assert sorted(amb.values()) == sorted(S)
    assert sorted(amb) == sorted(Q.elements())
    assert Q.counts == tuple(sum(d == e for d, _ in S) for e in range(plain_dim(S) + 1))
    for el in Q.elements():
        d, i = el
        assert amb[el][0] == d
        if i:
            assert amb[(d, i - 1)][1] < amb[el][1]
        for side in "-+":
            assert {amb[f] for f in plain_faces(Q, el, side)} == plain_faces(P, amb[el], side)


def check_against_plain(P, S, levels):
    """Every calculus operation on S, and every row of the level tables at
    a member of S, agrees with the plain set version; ``levels[k]`` is
    ``plain_level(P, k)``."""
    m = P.el_masks(S)
    assert set(P.masks_els(m)) == S and P.masks_els(m) == sorted(S)
    assert set(P.masks_els(P.closure_masks(m))) == plain_closure(P, S)
    assert set(P.masks_els(P.maximal_masks(m))) == plain_maximal(P, S)
    assert P.masks_dim(m) == plain_dim(S)
    assert P.connected_masks(m) == plain_connected(P, S)
    for k in range(-1, P.dim + 2):
        for alpha in "-+":
            assert set(P.masks_els(P.delta_masks(m, k, alpha))) == plain_delta(P, S, k, alpha)
        level, plain = P.level(k), levels[k]
        for x, p in zip(P.masks_els(m), _bits(m)):
            for name in ("succ", "need"):
                assert set(P.masks_els(getattr(level, name)[p])) == plain[name][x], (name, k, x)
    if plain_closure(P, S) != S:
        return
    check_extract(P, S)
    A = Closed(P, m)
    for k in range(-1, P.dim + 2):
        for alpha in "-+":
            assert set(A.boundary(k, alpha).elements()) == plain_boundary(P, S, k, alpha)
            assert set(A.delta(k, alpha)) == plain_delta(P, S, k, alpha)


def test_calculus_matches_plain_sets(corpus):
    rng = random.Random(8)
    posets = [mol.poset for mol in corpus] + [oriental(n).poset for n in range(6)]
    closed = 0
    for P in posets:
        els = list(P.elements())
        levels = {k: plain_level(P, k) for k in range(-1, P.dim + 2)}
        subsets = [set(els), set()]
        for _ in range(4):
            S = {el for el in els if rng.random() < rng.choice([0.1, 0.3, 0.6])}
            subsets += [S, plain_closure(P, S)]
        for S in subsets:
            closed += plain_closure(P, S) == S
            check_against_plain(P, S, levels)
    assert closed >= len(posets) * 5


def test_flow_frames_are_built_once_per_poset_and_level(monkeypatch):
    P = oriental(4).poset
    made = []
    delta = OgPoset.delta_masks

    def counted(self, masks, k, alpha):
        made.append(self)
        return delta(self, masks, k, alpha)

    monkeypatch.setattr(OgPoset, "delta_masks", counted)
    first = P.level(1).succ
    assert made
    made.clear()
    assert P.level(1).succ == first
    assert any(first)
    assert made == []
    # an extracted copy keeps its own tables, even with the same layout
    Q = P.extract(P.full_masks())[0]
    assert Q.level(1).succ == first
    assert made and all(R is Q for R in made)
    made.clear()
    P.level(2)
    assert made and all(R is P for R in made)


# -- outputs keep the per-dimension order -----------------------------------------


def test_outputs_keep_their_order_and_keys(corpus):
    # the submolecules and pre-layerings were captured before subsets became
    # single ints: sorting by the raw int instead of the per-dimension view
    # changes each of these
    from dcx import enumerate_sd, pre_layerings, submolecules

    v = [(0, i) for i in range(4)]
    e = [(1, i) for i in range(3)]
    assert [s.subset.elements() for s in submolecules(path(3))] == [
        [v[0]],
        [v[1]],
        [v[0], v[1], e[0]],
        [v[2]],
        [v[1], v[2], e[1]],
        [v[0], v[1], v[2], e[0], e[1]],
        [v[3]],
        [v[2], v[3], e[2]],
        [v[1], v[2], v[3], e[1], e[2]],
        [v[0], v[1], v[2], v[3], e[0], e[1], e[2]],
    ]
    lays = pre_layerings(corpus[20], 1).elements
    assert [[layer.elements() for layer in lay] for lay in lays] == [
        [
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)],
            [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 2)],
        ],
        [
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 2)],
            [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (3, 0)],
        ],
        [[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0)]],
    ]
    # a subdivision's key is its images as ints, in theta position order
    assert [s.key for s in enumerate_sd(path(3), {0}).elements] == [
        (1, 2, 4, 8, 19, 38, 76),
        (1, 2, 8, 19, 110),
        (1, 4, 8, 55, 76),
        (1, 8, 127),
    ]
