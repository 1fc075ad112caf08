import itertools
import random
from pathlib import Path

import pytest

from dcx import (
    BoundaryMismatchError,
    FinPoset,
    LabelMismatchError,
    NotParallelError,
    NotRoundError,
    PreconditionError,
    arrow,
    atom,
    factors_through_atom,
    find_iso,
    globe,
    is_molecule,
    is_round,
    join,
    molecule_iso,
    oriental,
    oriental_with_labels,
    parse_tree,
    paste,
    path,
    point,
    poset_homology,
    replay,
    splits,
    submolecules,
    suspension,
    theta_from_tree,
    validate,
)
from dcx.dcomplex import SemiSimplicialSet, enumerate_molecules, import_ssset
from dcx.molecule import (
    boundary_glue,
    is_round_masks,
    mol_cert,
    paste_labelled,
    submolecules_masks,
)
from dcx.ogposet import MINUS, PLUS, OgIso, _bits
from dcx.randgen import random_molecules
from dcx.serialize import loads_ogposet
from conftest import is_oriented_thin, oracle_find_iso, oracle_isomorphisms


def test_point_and_globes():
    assert point().counts == (1,)
    assert globe(0).counts == (1,)
    assert globe(2).counts == (2, 2, 1)
    assert globe(3).counts == (2, 2, 2, 1)


def test_negative_sizes_rejected():
    for make in (globe, path, oriental, oriental_with_labels):
        with pytest.raises(PreconditionError):
            make(-1)
    assert globe(0).counts == path(0).counts == oriental(0).counts == (1,)


def test_globe_boundaries_are_globes():
    g3 = globe(3)
    for j in range(3):
        for alpha in "-+":
            sub, _ = g3.boundary(j, alpha).extract()
            assert find_iso(sub, globe(j).poset) is not None


def test_globe_is_the_atom_on_two_smaller_globes():
    # the face table matches the atom construction index for index
    for k in range(1, 13):
        g = globe(k - 1)
        built, made = atom(g, g), globe(k)
        assert made.counts == built.counts
        assert made.poset.faces == built.poset.faces
        assert made.cert == built.cert


def test_paste_arrows():
    p2 = paste(path(1), path(1), 0)
    assert p2.counts == (3, 2)


def test_paste_globes_at_one():
    # pushout oracle: [2,2,1] glued with [2,2,1] along an arrow [2,1]
    vert = paste(globe(2), globe(2), 1)
    assert vert.counts == (2, 3, 2)


def test_paste_mismatch():
    with pytest.raises(BoundaryMismatchError):
        paste(globe(2), path(2), 1)


def test_paste_labelled_merges_or_raises():
    A = arrow().poset
    (src,), (tgt,) = A.faces[1][0]
    f = {(0, src): "s", (0, tgt): "t", (1, 0): "f"}
    g = {(0, src): "t", (0, tgt): "u", (1, 0): "g"}
    W, labels = paste_labelled(A, f, A, g, 0)
    assert W.counts == path(2).counts and sorted(labels.values()) == list("fgstu")
    ends = {"f": ("s", "t"), "g": ("t", "u")}
    for i, ((mn,), (pl,)) in enumerate(W.faces[1]):
        assert (labels[(0, mn)], labels[(0, pl)]) == ends[labels[(1, i)]]
    # the shapes glue, the labels on the shared vertex differ
    with pytest.raises(LabelMismatchError, match="boundary labels"):
        paste_labelled(A, f, A, {**g, (0, src): "v"}, 0)
    # one arrow against the two of a path
    with pytest.raises(BoundaryMismatchError, match="does not match"):
        paste_labelled(globe(2).poset, {}, path(2).poset, {}, 1)


def test_paste_counts_side_by_side():
    horiz = paste(globe(2), globe(2), 0)
    assert horiz.counts == (3, 4, 2)


def test_atom_arrow():
    assert atom(point(), point()).counts == (2, 1)


def test_atom_two_oriental():
    d2 = atom(path(1), path(2))
    assert molecule_iso(d2, oriental(2)) is not None


def test_atom_on_two_paths():
    # sphere gluing oracle: two copies of [3,2] share both endpoints
    lens = atom(path(2), path(2))
    assert lens.counts == (4, 4, 1)
    assert lens.greatest() == (2, 0)


def test_atom_requires_round():
    horiz = paste(globe(2), globe(2), 0)
    assert not is_round(horiz)
    with pytest.raises(NotRoundError):
        atom(horiz, horiz)


def test_atom_requires_parallel():
    with pytest.raises(NotParallelError):
        atom(path(1), point())
    # both round of dimension 2 but with boundary paths of different lengths
    with pytest.raises(NotParallelError):
        atom(globe(2), atom(path(2), path(2)))


def test_atom_boundaries_recovered():
    U, V = path(2), path(2)
    lens = atom(U, V)
    for alpha, side in (("-", U), ("+", V)):
        sub, _ = lens.boundary(1, alpha).extract()
        assert find_iso(sub, side.poset) is not None


def test_suspension_globe():
    for k in range(4):
        assert molecule_iso(suspension(globe(k)), globe(k + 1)) is not None


def test_suspension_of_path_is_stacked_globes():
    assert molecule_iso(suspension(path(2)), paste(globe(2), globe(2), 1)) is not None


def test_suspension_dim_and_cert():
    s = suspension(path(2))
    assert s.dim == path(2).dim + 1
    assert molecule_iso(replay(s.cert), s) is not None


def test_replay_builds_each_distinct_subcertificate_once(monkeypatch):
    # oriental(5)'s certificate repeats its subtrees; a rebuild per
    # occurrence costs time exponential in the dimension
    import dcx.molecule as mm

    U = oriental(5)
    distinct: set = set()
    todo = [U.cert]
    while todo:
        cert = todo.pop()
        if cert not in distinct:
            distinct.add(cert)
            todo.extend(c for c in cert[1:] if isinstance(c, tuple))
    calls = {"atom": 0, "paste": 0}
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(mm, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(mm, name, counted)
    V = replay(U.cert)
    assert calls == {name: sum(c[0] == name for c in distinct) for name in calls}
    assert V.key == U.key


def test_join_point_point():
    assert join(point(), point()).counts == (2, 1)


def test_join_arrow_point_is_two_oriental():
    d2 = join(path(1), point())
    assert molecule_iso(d2, atom(path(1), path(2))) is not None


def test_join_associative_up_to_iso():
    a = join(join(point(), point()), point())
    b = join(point(), join(point(), point()))
    assert find_iso(a.poset, b.poset) is not None


def test_oriental_sizes():
    for n in range(6):
        assert oriental(n).size() == 2 ** (n + 1) - 1
    assert oriental(3).size() == 15


def test_oriental_is_atom():
    for n in range(5):
        assert oriental(n).greatest() is not None


def test_is_atom():
    for mol in (point(), path(1), globe(2), oriental(3), atom(path(2), path(1))):
        assert mol.is_atom()
    horiz = paste(globe(2), globe(2), 0)
    for mol in (path(2), horiz, paste(globe(2), globe(2), 1)):
        assert not mol.is_atom()


def test_oriental_labels_are_subsets():
    mol, labels = oriental_with_labels(3)
    assert len(labels) == 15
    assert labels[frozenset({0, 1, 2, 3})] == mol.greatest()
    for subset, el in labels.items():
        assert el[0] == len(subset) - 1


def test_theta_trees():
    assert theta_from_tree("()").counts == (1,)
    assert molecule_iso(theta_from_tree("((),())"), path(2)) is not None
    assert molecule_iso(theta_from_tree("((()))"), globe(2)) is not None


def test_parse_tree_rejects_garbage():
    with pytest.raises(ValueError):
        parse_tree("((")
    with pytest.raises(ValueError):
        parse_tree("()x")


def test_round_examples(horiz):
    assert is_round(path(2))
    assert all(is_round(globe(k)) for k in range(4))
    assert not is_round(horiz)


def test_atoms_are_round(corpus):
    for mol in corpus:
        if mol.greatest() is not None:
            assert is_round(mol)


def test_roundness_matches_its_definition(corpus):
    """Each submolecule is round when, for every k below its dimension, the
    union of its (k-1)-boundaries is the intersection of its k-boundaries;
    the (-1)-boundaries are empty."""
    seen = {True: 0, False: 0}
    for mol in corpus[:30]:
        P = mol.poset
        for masks in submolecules_masks(P, P.full_masks()):
            d = P.masks_dim(masks)
            # sides[k + 1]: the two k-boundaries
            sides = [[P.boundary_masks(masks, k, a) for a in (MINUS, PLUS)] for k in range(-1, d)]
            expected = all(
                sides[k][0] | sides[k][1] == sides[k + 1][0] & sides[k + 1][1] for k in range(d)
            )
            assert is_round_masks(P, masks) == expected, masks
            seen[expected] += 1
    assert min(seen.values()) > 100, seen


def test_round_molecules_are_pure(round_corpus):
    assert len(round_corpus) >= 100
    for mol in round_corpus:
        top_dim = mol.dim
        assert all(el[0] == top_dim for el in mol.as_closed().maximal())


def test_is_molecule_on_constructions(corpus):
    for mol in corpus[:60]:
        cert = is_molecule(mol.poset)
        assert cert is not None
        assert len(oracle_isomorphisms(replay(cert).poset, mol.poset, limit=2)) == 1


def test_is_molecule_rejections(sphere_boundary, parallel_pair):
    assert is_molecule(sphere_boundary) is None
    assert is_molecule(parallel_pair) is None


def test_splits_of_atom_empty():
    assert splits(globe(2), 0) == []
    assert splits(globe(2), 1) == []
    assert splits(oriental(2), 0) == []


def test_splits_of_path():
    got = {(a.size(), b.size()) for a, b in splits(path(3), 0)}
    assert got == {(3, 5), (5, 3)}


def test_splits_whiskers(horiz, vert):
    assert len(splits(horiz, 1)) == 2
    assert splits(vert, 0) == []


def test_splits_parts_cover_and_meet(corpus):
    for mol in corpus[:30]:
        P = mol.poset
        for k in range(mol.dim):
            for a, b in splits(mol, k):
                union = a.masks | b.masks
                assert union == P.full_masks()
                inter = a.masks & b.masks
                assert inter == P.boundary_masks(a.masks, k, "+")
                assert inter == P.boundary_masks(b.masks, k, "-")


def test_submolecules_path():
    subs = submolecules(path(3))
    assert len(subs) == 10


def test_submolecules_of_two_path():
    subs = {s.subset.masks for s in submolecules(path(2))}
    assert len(subs) == 6  # the whole, two edges, three vertices


def test_submolecules_globe():
    got = {s.subset.masks for s in submolecules(globe(2))}
    assert len(got) == 5  # whole, two boundary arrows, two poles


def test_submolecule_members_are_molecules(corpus):
    for mol in corpus[:20]:
        for sub in submolecules(mol):
            assert is_molecule(sub.subset.extract()[0]) is not None


def test_factors_through_atom(horiz):
    from dcx import Closed, closure

    o2 = oriental(2)
    # the length-2 path inside the 2-simplex sits under the top cell
    assert factors_through_atom(o2, o2.boundary(1, "+"))
    # a single cell closure always factors
    assert factors_through_atom(horiz, closure(horiz.poset, [(2, 0)]))
    # the input path of the side-by-side composite straddles both cells
    assert not factors_through_atom(horiz, horiz.boundary(1, "-"))
    assert not factors_through_atom(horiz, Closed.full(horiz.poset))


def test_paste_associative_and_unital(corpus):
    triples = 0
    pool = [m for m in corpus if m.size() <= 12]
    for A, B in itertools.islice(itertools.combinations(pool, 2), 300):
        for k in range(min(A.dim, B.dim) + 1):
            try:
                AB = paste(A, B, k)
            except BoundaryMismatchError:
                continue
            try:
                BC = paste(B, B, k)
                left = paste(AB, B, k)
                right = paste(A, BC, k)
            except BoundaryMismatchError:
                continue
            assert find_iso(left.poset, right.poset) is not None
            triples += 1
            if triples >= 12:
                return
    assert triples > 0


def _extracted_boundary(P, k, side, cache):
    """The alpha-side k-boundary of P as a standalone poset, with the maps
    from its elements to P's and back."""
    key = (id(P), k, side)
    if key not in cache:
        B, to_p = P.extract(P.boundary_masks(P.full_masks(), k, side))
        cache[key] = (B, to_p, {el: b for b, el in to_p.items()})
    return cache[key]


def test_boundary_glue_matches_an_isomorphism_search():
    """boundary_glue reads the glue off two canonical boundary records; an
    isomorphism search of the extracted boundaries is the oracle."""
    X = import_ssset(SemiSimplicialSet.standard_simplex(3))
    posets = [m.poset for m in random_molecules(40, seed=3)]
    posets += [d.shape.poset for d in enumerate_molecules(X, 2)]
    cache: dict = {}
    glued = same_counts_apart = 0
    for P in posets:
        for Q in posets:
            for k in range(-1, max(P.dim, Q.dim) + 1):
                for p_side, q_side in itertools.product("-+", repeat=2):
                    BP, p_to, p_from = _extracted_boundary(P, k, p_side, cache)
                    BQ, q_to, q_from = _extracted_boundary(Q, k, q_side, cache)
                    glue = boundary_glue(P, Q, k, p_side, q_side)
                    iso = oracle_find_iso(BQ, BP)
                    assert (glue is None) == (iso is None), (P, Q, k, p_side, q_side)
                    if iso is None:
                        same_counts_apart += BP.counts == BQ.counts
                        continue
                    local = {q_from[q]: p_from[p] for q, p in glue.items()}
                    assert OgIso(BQ, BP, local).verify()
                    assert local == iso.mapping
                    glued += 1
    assert glued and same_counts_apart


def _random_graph(rng):
    """A valid non-regular poset of dimension at most 1: at most 6 vertices
    and 6 edges, each side of an edge a random set of vertices, possibly
    empty, disjoint from the other side."""
    n = rng.randint(1, 6)
    edges = []
    for _ in range(rng.randint(0, 6)):
        sides = [rng.choice("-+  ") for _ in range(n)]
        edges.append(tuple([v for v, s in enumerate(sides) if s == a] for a in "-+"))
    return validate([n, edges] if edges else [n])


def _connected_graph_subsets(P):
    """Every connected 1-dimensional closed subset of P, with its face data
    renumbered as ``validate`` reads it.  Each is the union of the closures
    of a nonempty set of edges, as a vertex outside every edge would be
    isolated; ``cl[r]`` is that union for the edges of the bits of r."""
    edges = [P.pos(e) for e in P.elements() if e[0] == 1]
    cl = [0]
    for r in range(1, 1 << len(edges)):
        low = r & -r
        cl.append(cl[r ^ low] | P.cl_el[edges[low.bit_length() - 1]])
        if P.connected_masks(cl[r]):
            els = P.masks_els(cl[r])
            new = {v: j for j, (d, v) in enumerate(els) if d == 0}
            faces = (
                tuple(tuple(new[v] for v in side) for side in P.faces[1][i])
                for d, i in els
                if d == 1
            )
            yield cl[r], (len(new), tuple(faces))


def test_one_dimensional_recognition_matches_an_isomorphism_search(corpus):
    """A connected 1-dimensional subset is recognised exactly when it is
    isomorphic to the path with as many edges, and its certificate replays
    to it.  The oracle runs once per distinct renumbered subset, on paths
    of at most 12 edges, the most that a corpus molecule has."""
    rng = random.Random(29)
    posets = [
        validate([2, [([0], [1]), ([1], [0])]]),  # a 2-cycle
        validate([2, [([0], [1]), ([0], [1])]]),  # two parallel edges
        validate([3, [([0], [1]), ([0], [2])]]),  # a branch
        validate([2, [([0], [])]]),  # an edge with an empty side
    ]
    posets += [_random_graph(rng) for _ in range(600)]
    # the corpus through 1-skeletons of their own, so that its shared
    # recognition memos stay as they are
    posets += [m.poset.extract(m.poset.upto(1))[0] for m in corpus]
    paths = [path(n).poset for n in range(13)]
    oracle: dict = {}
    replayed = set()
    seen = recognised = 0
    for P in posets:
        for masks, raw in _connected_graph_subsets(P):
            if raw not in oracle:
                Q = validate(raw)
                oracle[raw] = Q, oracle_find_iso(Q, paths[len(raw[1])]) is not None
            Q, is_path = oracle[raw]
            cert = mol_cert(P, masks)
            assert (cert is not None) == is_path, (P, P.masks_els(masks))
            if cert is not None and (raw, cert) not in replayed:
                assert oracle_find_iso(replay(cert).poset, Q) is not None
                replayed.add((raw, cert))
            seen += 1
            recognised += cert is not None
    assert recognised and seen > recognised


# -- oriented thinness: an oracle for recognition that shares no code with it --

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def golden_ogposets() -> dict:
    """The ogposet/1 inputs of the golden tests, by file stem."""
    return {
        src.stem: loads_ogposet(src.read_text(encoding="utf-8"))
        for src in sorted(GOLDEN_INPUTS.glob("*.json"))
        if "." not in src.stem
    }


def test_molecules_are_oriented_thin():
    """Every molecule of the ``check`` bench corpus, every small oriental,
    globe and path, and every golden input that recognition accepts."""
    mols = random_molecules(200, 20260809, max_elements=22)
    mols += [oriental(n) for n in range(7)] + [globe(k) for k in range(5)]
    mols += [path(k) for k in range(6)]
    golden = golden_ogposets()
    posets = [m.poset for m in mols] + [P for P in golden.values() if is_molecule(P)]
    assert len(mols) == 218 and len(posets) > len(mols)
    assert [n for n, P in enumerate(posets) if not is_oriented_thin(P)] == []
    assert not is_oriented_thin(golden["apart"])


def test_thinness_reads_the_orientation():
    """A 2-globe with one side reversed has a thin underlying poset, but
    the two chains from each vertex to the 2-cell have the same sign."""
    assert is_oriented_thin(globe(2).poset)
    assert not is_oriented_thin(validate([2, [([0], [1]), ([1], [0])], [([0], [1])]]))


# -- homology balls: the face poset of a regular CW ball, read by homology ----


def closure_order(P) -> FinPoset:
    """The face poset of P over its positions: p lies below q iff p lies in
    the closure of q."""
    up = [0] * P.size()
    for q, closure in enumerate(P.cl_el):
        for p in _bits(closure):
            up[p] |= 1 << q
    return FinPoset(list(P.elements()), up_masks=up)


def reduced_homology(F: FinPoset):
    """The nonzero reduced Betti numbers and torsion of a poset by degree,
    or None for the empty poset."""
    report = poset_homology(F)
    if report.empty:
        return None
    pairs = enumerate(zip(report.reduced_betti, report.torsion))
    return {j: (betti, torsion) for j, (betti, torsion) in pairs if betti or torsion}


def ball_failures(P) -> list:
    """The elements of P of dimension d whose strict down-set does not have
    the reduced homology of S^(d-1), the empty set for d = 0, then "not
    acyclic" if the whole face poset is not acyclic.  Both hold for the
    face poset of a regular CW ball; recognition shares no code with them."""
    order = closure_order(P)
    out = []
    for p, (d, i) in enumerate(P.elements()):
        below = order.restrict(list(_bits(P.cl_el[p] & ~(1 << p))))
        if reduced_homology(below) != (None if d == 0 else {d - 1: (1, [])}):
            out.append((d, i))
    if not poset_homology(order).is_acyclic():
        out.append("not acyclic")
    return out


def test_molecules_are_homology_balls():
    """The ``check`` bench corpus, every small oriental, globe and path,
    and every golden input that recognition accepts."""
    mols = random_molecules(200, 20260809, max_elements=22)
    mols += [oriental(n) for n in range(6)] + [globe(k) for k in range(5)]
    mols += [path(k) for k in range(6)]
    golden = [P for P in golden_ogposets().values() if is_molecule(P)]
    posets = [m.poset for m in mols] + golden
    assert len(mols) == 217 and len(golden) == 37
    assert [n for n, P in enumerate(posets) if ball_failures(P)] == []


def test_ball_checks_reject_the_golden_non_molecules():
    """``apart``'s 2-cell has a boundary that is no homology circle, and
    the face posets of ``opposite`` and ``points`` are not acyclic."""
    golden = golden_ogposets()
    assert ball_failures(golden["apart"]) == [(2, 0)]
    assert ball_failures(golden["opposite"]) == ["not acyclic"]
    assert ball_failures(golden["points"]) == ["not acyclic"]
