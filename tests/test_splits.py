"""The split enumerator against the bipartition oracle.

``splits_masks`` tries only the left sides that are down-sets of the maximal
k-flow graph and keep glued high elements together.  The oracle below is the
plain enumeration it replaced: every proper bipartition of the high maximal
elements whose closures meet in dimension at most k.  Run on an independent
copy of the poset, with the oracle patched in, every split search (the ones
recognition makes internally included) must give the same list in the same
order.
"""
import dcx.molecule as molecule
from dcx import globe, oriental, paste
from dcx.flow import maxflow_masks
from dcx.molecule import _split_candidates, splits_masks, submolecules_masks
from dcx.ogposet import OgPoset


def bipartition_candidates(P, high, k):
    """Every proper bipartition, as a left-side bitmask, in increasing order."""
    nd = len(P.counts)
    out = []
    for bits in range(1, (1 << len(high)) - 1):
        cla = [0] * nd
        clb = [0] * nd
        for pos, (hd, hi) in enumerate(high):
            target = cla if bits >> pos & 1 else clb
            for e, m in enumerate(P.cl_el[hd][hi]):
                target[e] |= m
        if P.masks_dim(tuple(a & b for a, b in zip(cla, clb))) > k:
            continue
        out.append(bits)
    return out


def fresh(P):
    """A copy of P with empty memos."""
    return OgPoset(P.counts, P.faces, regular=P.regular, _checked=True)


def split_table(P):
    """Splits of every submolecule at every level, plus every search reached."""
    for masks in submolecules_masks(P, P.full_masks()):
        for k in range(P.masks_dim(masks)):
            list(splits_masks(P, masks, k))
    return P._memo.get("splits", {})


def assert_matches_oracle(mol, monkeypatch):
    new = split_table(fresh(mol.poset))
    with monkeypatch.context() as m:
        m.setattr(molecule, "_split_candidates", bipartition_candidates)
        old = split_table(fresh(mol.poset))
    assert list(new) == list(old)
    for key in old:
        assert new[key] == old[key], key


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
    pos = {el: p for p, el in enumerate(high)}
    want = sorted([1 << pos[first], 1 << pos[first] | 1 << pos[middle]])
    assert _split_candidates(P, high, 0) == want
    assert len(list(splits_masks(P, full, 0))) == 2


def test_candidates_are_the_flow_down_sets_of_the_oracle(small_corpus):
    # the candidates are exactly the oracle's bipartitions whose left side is
    # closed under flow predecessors, and every split found is one of them
    for mol in small_corpus + [oriental(4)]:
        P = mol.poset
        for masks in submolecules_masks(P, P.full_masks()):
            for k in range(P.masks_dim(masks)):
                high = high_maximal(P, masks, k)
                pos = {el: p for p, el in enumerate(high)}
                edges = [
                    (pos[a], pos[b])
                    for a, b in maxflow_masks(P, masks, k).edges
                    if a != b
                ]
                down_sets = [
                    bits
                    for bits in bipartition_candidates(P, high, k)
                    if all(bits >> a & 1 for a, b in edges if bits >> b & 1)
                ]
                assert _split_candidates(P, high, k) == down_sets
                for left, _right in splits_masks(P, masks, k):
                    bits = sum(1 << pos[v] for v in high if left[v[0]] >> v[1] & 1)
                    assert bits in down_sets
