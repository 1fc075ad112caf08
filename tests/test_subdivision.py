import functools
import itertools
import random

import pytest

from dcx import (
    BoundaryMismatchError,
    DcxError,
    FinPoset,
    OverlapError,
    PreconditionError,
    contractibility_report,
    enumerate_sd,
    globe,
    oriental,
    paste,
    path,
    pre_layerings,
    restrict_levels,
    sd_report_json,
    theta_from_tree,
    tree_leq,
    validate,
)
from dcx.molecule import mol_cert, paste_labelled, splits_masks
from dcx.ogposet import MINUS, PLUS, _bits, labelled_key
from dcx.subdivision import _images, _subtrees, _trees, realize, tree_region
from conftest import (
    checked_poset,
    composition_refines,
    compositions,
    differential_inputs,
    oracle_find_iso,
    posets_isomorphic,
)


def composition_of(sub):
    """Edge counts of the root layers of a subdivision of a path."""
    view = sub.ambient.masks_by_dim
    if sub.tree[0] == "leaf":
        return (bin(view(sub.ambient.full_masks())[1]).count("1"),)
    return tuple(bin(view(tree_region(c))[1]).count("1") for c in sub.tree[2])


def test_sd_sizes_are_composition_counts():
    # Sd of path(k) at {0} is the Boolean lattice on the k - 1 inner vertices.
    for k in range(1, 10):
        sdp = enumerate_sd(path(k), {0})
        assert sdp.size == 2 ** (k - 1)
        assert len(sdp.poset.covers()) == (k - 1) * 2 ** (k - 1) // 2
        assert sdp.poset.bottom() == sdp.bottom
        assert sdp.poset.top() is not None
        # with a top, the up-side pass alone dismantles it: no down-rows
        assert sdp.poset.dismantle_core().n == 1
        assert "_dn" not in sdp.poset.__dict__


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sd_of_path_matches_compositions(k):
    sdp = enumerate_sd(path(k), {0})
    comps = compositions(k)
    comp_poset = FinPoset.from_leq(comps, lambda a, b: composition_refines(b, a))
    assert posets_isomorphic(sdp.poset, comp_poset)
    # and the explicit bijection preserves order both ways
    index = {c: i for i, c in enumerate(comps)}
    images = [composition_of(s) for s in sdp.elements]
    assert sorted(images) == sorted(comps)
    for i in range(sdp.size):
        for j in range(sdp.size):
            assert sdp.poset.leq(i, j) == comp_poset.leq(
                index[images[i]], index[images[j]]
            )


def _factors_through(a, b):
    """Oracle for the refinement order: a factors through b when every node
    of a cuts b's theta into chunks, one per layer, that are molecules of
    the theta, meet the next chunk along their k-boundaries and have their
    layer as the union of their images; the comparison recurses into the
    chunks."""
    return _chunks_factor(a.tree, b, b.theta.full_masks())


def _chunks_factor(tree, b, sub):
    if tree[0] == "leaf":
        return True
    _, k, children, _region = tree
    T = b.theta
    layers = [tree_region(c) for c in children]
    chunks, unions = [0] * len(layers), [0] * len(layers)
    for p in _bits(sub):
        image = b.key[p]
        found = False
        for i, layer in enumerate(layers):
            if image & ~layer == 0:
                chunks[i] |= 1 << p
                unions[i] |= image
                found = True
        if not found:
            return False
    if unions != layers:
        return False
    if any(mol_cert(T, chunk) is None for chunk in chunks):
        return False
    rest = chunks[-1]
    for left in reversed(chunks[:-1]):
        bd = T.boundary_masks(left, k, PLUS)
        if left & rest != bd or T.boundary_masks(rest, k, MINUS) != bd:
            return False
        rest |= left
    return all(_chunks_factor(c, b, chunk) for c, chunk in zip(children, chunks))


def _covers_leaves(a, b):
    """The region test by its definition: every leaf region r of a is the
    union of b's images inside r."""
    for t in _subtrees(a.tree):
        if t[0] == "leaf":
            r = t[1]
            if functools.reduce(int.__or__, (m for m in b.key if m & ~r == 0), 0) != r:
                return False
    return True


def test_refinement_order_matches_all_pairs_oracle(corpus, horiz, vert):
    for mol, S in differential_inputs(corpus, horiz, vert):
        sdp = enumerate_sd(mol, S)
        els = sdp.elements
        oracle = FinPoset.from_leq(range(sdp.size), lambda i, j: _factors_through(els[i], els[j]))
        for i in range(sdp.size):
            up = oracle.up_mask(i)
            assert sdp.poset.up_mask(i) == up, (mol.counts, S, i)
            for j in _bits(up):
                assert oracle.up_mask(j) & ~up == 0, (mol.counts, S, i, j)
                assert els[i].theta.size() < els[j].theta.size(), (mol.counts, S, i, j)


def test_region_filter_is_exact_across_level_sets(corpus, horiz, vert):
    # Pool the subdivisions of each molecule over all its level sets, so
    # that pairs whose trees use different levels are compared too.  On
    # every pair the filter's maximal-element form, the region test by its
    # definition, tree_leq and the factorisation oracle agree.
    import dcx.subdivision as sdm

    pools: dict[bytes, tuple] = {}
    for mol, S in differential_inputs(corpus, horiz, vert):
        mol, pool = pools.setdefault(mol.key, (mol, {}))
        for s in enumerate_sd(mol, S).elements:
            pool.setdefault(s.key, s)
    pairs = 0
    for mol, pool in pools.values():
        els = list(pool.values())
        candidates = sdm._region_candidates(els)
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                covered = _covers_leaves(a, b)
                where = (mol.counts, a.tree, b.tree)
                assert bool(candidates[i] >> j & 1) == covered, where
                assert tree_leq(a, b) == covered, where
                assert _factors_through(a, b) == covered, where
        pairs += len(els) ** 2
    assert pairs > 5000


def _pasted_realisation(P, tree):
    """The theta of a tree as the pasting of its leaves' globes along the
    node levels, with each element labelled by its image."""
    if tree[0] == "leaf":
        region = tree[1]
        d = P.masks_dim(region)
        img = {(d, 0): region}
        for j in range(d):
            img[(j, 0)] = P.boundary_masks(region, j, MINUS)
            img[(j, 1)] = P.boundary_masks(region, j, PLUS)
        return globe(d).poset, img
    k, children = tree[1], tree[2]
    theta, img = _pasted_realisation(P, children[0])
    for child in children[1:]:
        th2, img2 = _pasted_realisation(P, child)
        theta, img = paste_labelled(theta, img, th2, img2, k)
    return theta, img


def test_realize_matches_pasting_oracle(corpus, horiz, vert):
    # realize reads the theta off the images; the oracle pastes it, and the
    # canonical key of each labelled theta compares their structure.  A
    # subdivision is keyed by its image set alone: over all trees of an
    # input, that key groups the trees as the canonical key does, and no two
    # trees share it, so enumerate_sd keeps every tree.
    count = 0
    for mol, S in differential_inputs(corpus, horiz, vert):
        P = mol.poset
        by_key, by_canonical = {}, {}
        for n, tree in enumerate(_trees(P, P.full_masks(), tuple(sorted(S)), -1)):
            sub = realize(P, tree)
            theta, img = _pasted_realisation(P, tree)
            assert len(set(img.values())) == theta.size(), (mol.counts, S, tree)
            canonical = labelled_key(sub.theta, sub.theta.full_masks(), sub.img)
            assert labelled_key(theta, theta.full_masks(), img) == canonical, (mol.counts, S, tree)
            assert set(img.values()) == set(sub.key), (mol.counts, S, tree)
            by_key.setdefault(sub.key, []).append(n)
            by_canonical.setdefault(canonical, []).append(n)
            count += 1
        assert sorted(by_key.values()) == sorted(by_canonical.values()), (mol.counts, S)
        assert len(by_key) == n + 1 == enumerate_sd(mol, S).size, (mol.counts, S)
    assert count > 700


def test_sd_makes_no_isomorphism_search(horiz, vert, monkeypatch):
    # A subdivision is keyed by its images, so listing, ordering and
    # restricting subdivisions never search for an isomorphism.  The
    # molecules are built and certified first: paste and atom search.
    import dcx.ogposet

    theta = theta_from_tree("(((),()),())")
    inputs = [(path(6), {0}), (theta, {0, 1}), (horiz, {0, 1}), (vert, {0, 1})]
    for mol, _ in inputs:
        assert mol.cert

    def refuse(*args):
        raise AssertionError("isomorphism search on the sd path")

    monkeypatch.setattr(dcx.ogposet, "_canonical_form", refuse)
    for mol, S in inputs:
        sdp = enumerate_sd(mol, S)
        bottom = sdp.elements[sdp.bottom]
        for sub in sdp.elements:
            assert tree_leq(bottom, sub)
            assert restrict_levels(sub, set()).key == bottom.key
            assert restrict_levels(sub, S).key == sub.key


def test_sd_builds_no_theta(horiz, vert, monkeypatch):
    # The order, the homology and level pruning read only the keys, so no
    # theta poset is built on the sd path.
    import dcx.subdivision

    theta = theta_from_tree("(((),()),())")
    inputs = [(path(6), {0}), (theta, {0, 1}), (horiz, {0, 1}), (vert, {0, 1})]
    for mol, _ in inputs:
        assert mol.cert

    def refuse(*args, **kwargs):
        raise AssertionError("theta built on the sd path")

    monkeypatch.setattr(dcx.subdivision, "OgPoset", refuse)
    for mol, S in inputs:
        sdp = enumerate_sd(mol, S)
        assert contractibility_report(mol, S).connected
        bottom = sdp.elements[sdp.bottom]
        for sub in sdp.elements:
            assert tree_leq(bottom, sub)
            assert restrict_levels(sub, set()).key == bottom.key
            assert restrict_levels(sub, S).key == sub.key


def test_counts_and_big_cell_are_read_off_key_and_tree(corpus, horiz, vert):
    for mol, S in differential_inputs(corpus, horiz, vert):
        for sub in enumerate_sd(mol, S).elements:
            T = sub.theta
            assert sub.counts == T.counts, (mol.counts, S, sub.tree)
            big = T.maximal_masks(T.full_masks()).bit_count() == 1
            assert sub.is_big_cell() == big, (mol.counts, S, sub.tree)


def _eager_realize(P, tree):
    """The theta built at once, as a plain OgPoset checked by ``validate``
    and for regularity."""
    images, size = _images(P, tree)
    if len(images) != size:
        raise DcxError("element-image map is not injective")
    key = sorted(images, key=lambda m: (P.masks_dim(m), m))
    counts = [0] * (P.masks_dim(tree_region(tree)) + 1)
    index, faces = {}, [[] for _ in counts]
    for m in key:
        d = P.masks_dim(m)
        index[m] = counts[d]
        counts[d] += 1
        if d:
            lo, hi = images[m]
            faces[d].append(((index[lo],), (index[hi],)))
    return checked_poset(counts, faces), tuple(key)


def _lazy_realize(P, tree):
    sub = realize(P, tree)
    return sub.theta, sub.key


def _outcome(build):
    try:
        theta, key = build()
        return theta.counts, theta.faces, key
    except DcxError as e:
        return type(e), str(e)


def test_realize_raises_where_the_eager_theta_does():
    # Random trees of closed subsets of random regular ogposets, most of
    # them not subdivisions: realize raises exactly where building and
    # validating the theta at once raises, with the same error, and the
    # lazily built theta is otherwise the validated one.
    rng = random.Random(5)
    raised, built = set(), 0
    for _ in range(150):
        counts = [rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 3)]
        faces = [[]]
        for d in (1, 2):
            faces.append([])
            for _ in range(counts[d]):
                below = rng.sample(range(counts[d - 1]), rng.randint(2, counts[d - 1]))
                cut = rng.randint(1, len(below) - 1)
                faces[d].append((below[:cut], below[cut:]))
        P = checked_poset(counts, faces)
        closed = [functools.reduce(int.__or__, rng.sample(P.cl_el, 2)) for _ in range(8)]

        def tree(depth):
            if depth == 0 or rng.random() < 0.4:
                return ("leaf", rng.choice(closed))
            children = tuple(tree(depth - 1) for _ in range(rng.randint(2, 3)))
            return ("node", rng.randint(0, 1), children, functools.reduce(
                int.__or__, map(tree_region, children)))

        for _ in range(20):
            t = tree(2)
            lazy = _outcome(lambda: _lazy_realize(P, t))
            assert lazy == _outcome(lambda: _eager_realize(P, t)), t
            if len(lazy) == 2:
                raised.add(lazy[1])
            else:
                built += 1
    assert built > 500 and len(raised) == 5, (built, raised)


def test_realize_reports_overlapping_faces(monkeypatch):
    # An image whose input and output faces are equal raises the error that
    # validating its theta would raise, before any theta is built.
    import dcx.subdivision

    P = path(1).poset
    vertex, edge = 1 << 0, 1 << 2  # positions: two vertices, then the edge
    images = {vertex: None, edge: (vertex, vertex)}
    monkeypatch.setattr(dcx.subdivision, "_images", lambda P, tree: (images, 2))
    with pytest.raises(OverlapError):
        realize(P, ("leaf", P.full_masks()))
    with pytest.raises(OverlapError):
        validate([1, [((0,), (0,))]])


def test_realize_rejects_layers_in_the_wrong_order():
    P = path(2).poset
    [(first, second)] = splits_masks(P, P.full_masks(), 0)
    ordered = ("node", 0, (("leaf", first), ("leaf", second)), P.full_masks())
    assert realize(P, ordered).theta.counts == (3, 2)
    with pytest.raises(BoundaryMismatchError):
        realize(P, ("node", 0, (("leaf", second), ("leaf", first)), P.full_masks()))


def test_sd_of_atom_is_empty():
    for mol in (globe(2), globe(3), oriental(2), oriental(3)):
        rep = contractibility_report(mol)
        assert rep.empty
        sdp = enumerate_sd(mol, range(max(mol.dim, 0)))
        assert sdp.size == 1  # just the big cell


def test_sd_interchange_example(horiz):
    sdp = enumerate_sd(horiz, {0, 1})
    assert sdp.size == 4
    sd = sdp.sd()
    assert sd.n == 3
    top = sd.top()
    assert top is not None
    ident = sdp.elements[sd.elements[top]]
    assert ident.levels == {0}
    whisks = [s for s in sdp.sd_elements() if s.levels == {1}]
    assert len(whisks) == 2
    for w in whisks:
        assert tree_leq(w, ident)
        assert not tree_leq(ident, w)


def test_big_cell_is_initial(corpus):
    for mol in corpus[:15]:
        if mol.dim < 1 or mol.size() > 14:
            continue
        sdp = enumerate_sd(mol, range(mol.dim))
        assert sdp.poset.bottom() == sdp.bottom


def test_single_level_matches_pre_layerings(corpus, horiz, vert):
    fixtures = [path(4), horiz, vert] + [m for m in corpus if m.size() <= 12][:12]
    for mol in fixtures:
        for k in range(mol.dim):
            sdp = enumerate_sd(mol, {k})
            pl = pre_layerings(mol, k)
            assert sdp.size == pl.n
            assert posets_isomorphic(sdp.poset, pl)


def test_identity_subdivision_is_maximum_for_thetas():
    for tree in ["((),())", "((()),())", "(((),()))", "((()),(()))"]:
        th = theta_from_tree(tree)
        sdp = enumerate_sd(th, range(th.dim))
        sd = sdp.sd()
        top = sd.top()
        assert top is not None
        ident = sdp.elements[sd.elements[top]]
        # the finest subdivision of a theta is the theta itself
        assert oracle_find_iso(ident.theta, th.poset) is not None


def test_subdivision_images_injective_and_dim_preserving(corpus):
    for mol in corpus[:15]:
        if mol.dim < 1 or mol.size() > 14:
            continue
        sdp = enumerate_sd(mol, range(mol.dim))
        for sub in sdp.elements:
            images = list(sub.img.values())
            assert len(set(images)) == len(images)
            for el, masks in sub.img.items():
                assert sub.ambient.masks_dim(masks) == el[0]


def test_restrict_levels_examples(horiz):
    sdp = enumerate_sd(horiz, {0, 1})
    sd = sdp.sd()
    ident = sdp.elements[sd.elements[sd.top()]]
    pruned = restrict_levels(ident, {0})
    assert pruned.key == ident.key  # identity subdivision lives at level 0
    whisk = [s for s in sdp.sd_elements() if s.levels == {1}][0]
    assert restrict_levels(whisk, set()).is_big_cell()
    assert restrict_levels(whisk, whisk.levels).key == whisk.key


def test_restrict_levels_monotone_idempotent():
    p4 = path(4)
    sdp = enumerate_sd(p4, {0})
    for a in sdp.elements:
        for b in sdp.elements:
            if tree_leq(a, b):
                ra, rb = restrict_levels(a, set()), restrict_levels(b, set())
                assert tree_leq(ra, rb)


def test_restrict_levels_requires_initial_segment(horiz):
    sdp = enumerate_sd(horiz, {0, 1})
    sd = sdp.sd()
    ident = sdp.elements[sd.elements[sd.top()]]
    assert ident.levels == {0}
    with pytest.raises(PreconditionError):
        restrict_levels(ident, {1})


def test_contractibility_reports(horiz):
    rep = contractibility_report(path(3))
    assert rep.connected and rep.dismantlable
    assert all(b == 0 for b in rep.reduced_betti)
    assert rep.size == 3
    rep = contractibility_report(horiz)
    assert rep.connected and rep.dismantlable
    assert all(b == 0 for b in rep.reduced_betti)


def test_sd_report_json_fields():
    doc = sd_report_json(globe(2))
    assert doc["empty"] is True and doc["sd_size"] == 0
    doc = sd_report_json(path(3))
    assert doc["connected"] is True
    assert doc["sd_size"] == 3
    assert set(doc) == {
        "molecule",
        "sd_size",
        "connected",
        "reduced_betti",
        "torsion",
        "dismantlable",
        "empty",
    }


def test_sd_contractible_on_random_fixtures(corpus):
    checked = 0
    for mol in corpus:
        if mol.size() > 14 or mol.greatest() is not None or mol.dim < 1:
            continue
        rep = contractibility_report(mol)
        assert rep.connected, mol.counts
        assert all(b == 0 for b in rep.reduced_betti), mol.counts
        assert all(not t for t in rep.torsion), mol.counts
        checked += 1
    assert checked >= 10


def _copy_tree(t):
    """A structurally equal tree made of new tuple objects."""
    if t[0] == "leaf":
        return ("leaf",) + t[1:]
    return ("node", t[1], tuple(_copy_tree(c) for c in t[2])) + t[3:]


def test_tree_leq_memo_survives_freed_trees():
    # Compare persistent elements with fresh copies that are freed between
    # calls: a memo keyed by object identity alone answers for a dead tree
    # whose id has been reused by the next copy.
    sdp = enumerate_sd(path(5), {0})
    P = sdp.molecule.poset
    elements = sdp.elements
    expected = [[tree_leq(a, b) for b in elements] for a in elements]
    for rounds in range(2):
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                copy = realize(P, _copy_tree(a.tree))
                assert tree_leq(copy, b) == expected[i][j], (rounds, i, j)
                del copy
