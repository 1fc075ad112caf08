import pytest

from dcx import (
    FinPoset,
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
    tree_leq,
)
from conftest import composition_refines, compositions


def composition_of(sub):
    """Edge counts of the root layers of a subdivision of a path."""
    from dcx.subdivision import tree_region

    if sub.tree[0] == "leaf":
        return (bin(sub.ambient.full_masks()[1]).count("1"),)
    return tuple(bin(tree_region(c)[1]).count("1") for c in sub.tree[2])


def test_sd_sizes_are_composition_counts():
    for k in range(1, 7):
        sdp = enumerate_sd(path(k), {0})
        assert sdp.size == 2 ** (k - 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sd_of_path_matches_compositions(k):
    sdp = enumerate_sd(path(k), {0})
    comps = compositions(k)
    comp_poset = FinPoset.from_leq(comps, lambda a, b: composition_refines(b, a))
    assert sdp.poset.isomorphic(comp_poset)
    # and the explicit bijection preserves order both ways
    index = {c: i for i, c in enumerate(comps)}
    images = [composition_of(s) for s in sdp.elements]
    assert sorted(images) == sorted(comps)
    for i in range(sdp.size):
        for j in range(sdp.size):
            assert sdp.poset.leq(i, j) == comp_poset.leq(
                index[images[i]], index[images[j]]
            )


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
            assert sdp.poset.isomorphic(pl)


def test_identity_subdivision_is_maximum_for_thetas():
    from dcx import theta_from_tree

    for tree in ["((),())", "((()),())", "(((),()))", "((()),(()))"]:
        th = theta_from_tree(tree)
        sdp = enumerate_sd(th, range(th.dim))
        sd = sdp.sd()
        top = sd.top()
        assert top is not None
        ident = sdp.elements[sd.elements[top]]
        # the finest subdivision of a theta is the theta itself
        from dcx import find_iso

        assert find_iso(ident.theta, th.poset) is not None


def test_subdivision_images_injective_and_dim_preserving(corpus):
    for mol in corpus[:15]:
        if mol.dim < 1 or mol.size() > 14:
            continue
        sdp = enumerate_sd(mol, range(mol.dim))
        for sub in sdp.elements:
            images = list(sub.img.values())
            assert len({tuple(m) for m in images}) == len(images)
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
    from dcx.subdivision import realize

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
