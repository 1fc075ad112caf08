"""The split enumerator against the bipartition oracle.

``splits_masks`` tries only the left sides that are down-sets of the maximal
k-flow graph and keep glued high elements together.  The oracle below is the
plain enumeration it replaced: every proper bipartition of the high maximal
elements whose closures meet in dimension at most k, each given by its left
side as a subset, as the candidates are.  Run on an independent
copy of the poset, with the oracle patched in, every split listing must give
the same list in the same order, and recognition, which stops at the first
split, must give the same certificates.

``splits_masks`` is a lazy generator that memoises nothing; the tests at the
end check that interleaved listings each give the full list, and that
recognition pastes the first split listed at the highest level that has
one.  That no split memo exists is pinned by the memo-name guard in
``test_imports.py``.

``_membrane_splits`` yields every rebuild without testing it; its docstring
proves each one proper and covering.  The rebuild oracle below makes that
test on every rebuild that recognition, ``submolecules_masks`` and
``candidate_closure_masks`` ask for.  ``_membrane_splits`` builds each
rebuild in one closure; the growth oracle at the end grows the membrane by
both sides' frames, δ recomputed at every step, until stable, and must give
the same pairs in the same order.
"""
import dcx.molecule as molecule
from dcx import globe, oriental, paste
from dcx.flow import maxflow_masks
from dcx.molecule import (
    _split_candidates,
    candidate_closure_masks,
    mol_cert,
    splits_masks,
    submolecules_masks,
)
from dcx.ogposet import MINUS, PLUS, OgPoset, _bits


def bipartition_candidates(P, high, k):
    """Every proper bipartition of ``high``, as its left side (a subset of
    ``high``), in increasing order."""
    members = list(_bits(high))
    out = []
    for bits in range(1, (1 << len(members)) - 1):
        left = cla = clb = 0
        for n, p in enumerate(members):
            if bits >> n & 1:
                left |= 1 << p
                cla |= P.cl_el[p]
            else:
                clb |= P.cl_el[p]
        if P.masks_dim(cla & clb) > k:
            continue
        out.append(left)
    return out


def fresh(P):
    """A copy of P with empty memos."""
    return OgPoset(P.counts, P.faces)


def split_table(P):
    """Splits of every submolecule at every level, listed through
    ``splits_masks``."""
    return {
        (masks, k): list(splits_masks(P, masks, k))
        for masks in submolecules_masks(P, P.full_masks())
        for k in range(P.masks_dim(masks))
    }


def assert_matches_oracle(mol, monkeypatch):
    P, Q = fresh(mol.poset), fresh(mol.poset)
    new = split_table(P)
    mol_cert(P, P.full_masks())
    with monkeypatch.context() as m:
        m.setattr(molecule, "_split_candidates", bipartition_candidates)
        old = split_table(Q)
        mol_cert(Q, Q.full_masks())
    assert list(new) == list(old)
    for key in old:
        assert new[key] == old[key], key
    assert P._memo["mol"] == Q._memo["mol"]


def high_maximal(P, masks, k):
    return [el for el in P.masks_els(P.maximal_masks(masks)) if el[0] > k]


def test_splits_match_oracle_small_corpus(small_corpus, monkeypatch):
    for mol in small_corpus:
        assert_matches_oracle(mol, monkeypatch)


def test_splits_match_oracle_oriental(monkeypatch):
    assert_matches_oracle(oriental(4), monkeypatch)


def test_splits_match_oracle_whiskers(horiz, vert, monkeypatch):
    assert_matches_oracle(horiz, monkeypatch)
    assert_matches_oracle(vert, monkeypatch)


def test_non_down_set_never_tried():
    # three 2-globes side by side: the 0-flow graph is g0 -> g1 -> g2
    row = paste(paste(globe(2), globe(2), 0), globe(2), 0)
    P = row.poset
    full = P.full_masks()
    high = high_maximal(P, full, 0)
    assert len(high) == 3
    succ = dict(maxflow_masks(P, full, 0).edges)
    assert len(succ) == 2
    (first,) = set(succ) - set(succ.values())
    middle = succ[first]
    last = succ[middle]
    assert {first, middle, last} == set(high)
    want = sorted([P.el_masks([first]), P.el_masks([first, middle])])
    assert list(_split_candidates(P, P.el_masks(high), 0)) == want
    assert len(list(splits_masks(P, full, 0))) == 2


def test_candidates_are_the_flow_down_sets_of_the_oracle(small_corpus):
    # the candidates are exactly the oracle's bipartitions whose left side is
    # closed under flow predecessors, and every split found is one of them
    for mol in small_corpus + [oriental(4)]:
        P = mol.poset
        for masks in submolecules_masks(P, P.full_masks()):
            for k in range(P.masks_dim(masks)):
                high = P.el_masks(high_maximal(P, masks, k))
                edges = [
                    (P.el_masks([a]), P.el_masks([b]))
                    for a, b in maxflow_masks(P, masks, k).edges
                    if a != b
                ]
                down_sets = [
                    left
                    for left in bipartition_candidates(P, high, k)
                    if all(left & a for a, b in edges if left & b)
                ]
                assert list(_split_candidates(P, high, k)) == down_sets
                for left, _right in splits_masks(P, masks, k):
                    assert (left & high) in down_sets


# -- one lazy lister, no memo ------------------------------------------------------


def split_cases(small_corpus):
    """(molecule, level, full split list) for every level of every molecule of
    the small corpus and of oriental(4), listed on a fresh copy."""
    for mol in small_corpus + [oriental(4)]:
        P = fresh(mol.poset)
        for k in range(P.dim):
            yield mol, k, list(splits_masks(P, P.full_masks(), k))


def test_interleaved_listings_of_one_subset(small_corpus):
    for mol, k, want in split_cases(small_corpus):
        P = fresh(mol.poset)
        full = P.full_masks()
        got = {0: [], 1: []}
        live = {0: splits_masks(P, full, k), 1: splits_masks(P, full, k)}
        turn = 0
        while live:
            if turn in live:
                try:
                    got[turn].append(next(live[turn]))
                except StopIteration:
                    del live[turn]
            turn = 1 - turn
        assert got[0] == want and got[1] == want, (mol, k)


def test_recognition_pastes_the_first_listed_split(small_corpus):
    pastes = 0
    for mol in small_corpus + [oriental(4)]:
        P = fresh(mol.poset)
        full = P.full_masks()
        cert = mol_cert(P, full)
        if P.dim < 2 or cert[0] != "paste":
            continue
        k = cert[1]
        assert all(not list(splits_masks(P, full, j)) for j in range(k + 1, P.dim))
        left, right = next(splits_masks(P, full, k))
        assert cert == ("paste", k, mol_cert(P, left), mol_cert(P, right))
        pastes += 1
    assert pastes > 10


def test_first_split_certificate_matches_full_listing(small_corpus):
    for mol in small_corpus + [oriental(4)]:
        lazy = fresh(mol.poset)
        listed = fresh(mol.poset)
        split_table(listed)
        assert mol_cert(lazy, lazy.full_masks()) == mol_cert(listed, listed.full_masks())


# -- every rebuild is proper, covers its subset and meets at most at k ------------


def checked_rebuilds(real, seen):
    """``real`` with every pair it yields checked: neither side is the whole
    subset, together they cover it, and they meet in dimension at most k.
    ``seen[0]`` counts the pairs."""

    def rebuilds(P, masks, k):
        for left, right in real(P, masks, k):
            proper = left != masks and right != masks
            if not (proper and left | right == masks and left & right & ~P.upto(k) == 0):
                raise AssertionError(("not proper, covering, meeting at most at k", masks, k))
            seen[0] += 1
            yield left, right

    return rebuilds


def test_rebuilds_are_proper_and_covering(corpus, monkeypatch):
    seen = [0]
    real = molecule._membrane_splits
    monkeypatch.setattr(molecule, "_membrane_splits", checked_rebuilds(real, seen))
    for mol in corpus + [oriental(n) for n in range(7)]:
        P = fresh(mol.poset)
        full = P.full_masks()
        assert mol_cert(P, full) is not None
        submolecules_masks(P, full)
        candidate_closure_masks(P, full)
    assert seen[0] > 400_000


# -- one closure rebuilds what growing the membrane until stable does -------------


def grown_rebuilds(P, masks, k):
    """The rebuild of every candidate by growth: the membrane starts as the
    closure of the closures' intersection and of the low elements outside
    both, and grows by the output k-frame of the left side and the input
    k-frame of the right side, recomputed from the sides at every step,
    until stable."""
    high = P.maximal_masks(masks) & ~P.upto(k)
    if high & (high - 1) == 0:
        return
    low = masks & P.upto(k)
    for left_high in _split_candidates(P, high, k):
        cla, clb = P.closure_masks(left_high), P.closure_masks(high & ~left_high)
        membrane = P.closure_masks(cla & clb | low & ~(cla | clb))
        while True:
            left, right = cla | membrane, clb | membrane
            grow = P.closure_masks(
                P.delta_masks(left, k, PLUS) | P.delta_masks(right, k, MINUS)
            )
            if grow & ~membrane == 0:
                break
            membrane |= grow
        yield left, right


def test_one_closure_rebuilds_the_grown_membrane(corpus):
    pairs = 0
    for mol in corpus[:40] + [oriental(n) for n in range(6)]:
        P = mol.poset
        for masks in candidate_closure_masks(P, P.full_masks()):
            for k in range(P.masks_dim(masks)):
                rebuilt = list(molecule._membrane_splits(P, masks, k))
                assert rebuilt == list(grown_rebuilds(P, masks, k)), (masks, k)
                pairs += len(rebuilt)
    assert pairs > 5_000
