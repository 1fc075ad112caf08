import itertools

import networkx as nx
import pytest

import dcx.flow as flow
import dcx.molecule as molecule
from dcx import (
    Closed,
    FinPoset,
    FlowGraph,
    Molecule,
    PreconditionError,
    check_layering_theory,
    frame_dim,
    globe,
    is_frame_acyclic,
    is_hasse_acyclic,
    layering_to_ordering,
    layerings,
    maxflow,
    orderings,
    oriental,
    paste,
    path,
    pre_layerings,
    pre_orderings,
    random_molecules,
)
from dcx.flow import FrameAcyclicity, _chains, _minimal_blocks
from dcx.molecule import candidate_closure_masks, submolecules_masks
from dcx.ogposet import OgPoset, down_sets


def test_frame_dim_examples(horiz, vert):
    assert frame_dim(globe(2)) == -1
    assert frame_dim(oriental(3)) == -1
    assert frame_dim(path(2)) == 0
    assert frame_dim(vert) == 1
    assert frame_dim(horiz) == 0


def test_maxflow_path():
    fg = maxflow(path(2), 0)
    assert set(fg.vertices) == {(1, 0), (1, 1)}
    assert fg.edges == {((1, 0), (1, 1))}


def test_maxflow_whisker_level(horiz):
    fg = maxflow(horiz, 1)
    assert len(fg.vertices) == 2 and not fg.edges


def test_maxflow_atom_trivial():
    for k in (-1, 0, 1):
        fg = maxflow(globe(2), k)
        assert len(fg.vertices) == 1 and not fg.edges


def test_maxflow_minus_one_edgeless(corpus):
    for mol in corpus[:20]:
        fg = maxflow(mol, -1)
        assert not fg.edges
        assert set(fg.vertices) == set(mol.as_closed().maximal())


def test_topological_sorts_match_networkx(corpus):
    for mol in corpus[:25]:
        for k in range(-1, mol.dim):
            fg = maxflow(mol, k)
            if len(fg.vertices) > 7:
                continue
            g = nx.DiGraph()
            g.add_nodes_from(fg.vertices)
            g.add_edges_from(fg.edges)
            if not nx.is_directed_acyclic_graph(g):
                continue
            expect = {tuple(s) for s in nx.all_topological_sorts(g)}
            assert {tuple(s) for s in fg.topological_sorts()} == expect


def test_pre_layerings_path():
    assert pre_layerings(path(3), 0).n == 4
    assert pre_layerings(path(2), 0).n == 2


def test_pre_layerings_trivial_cases():
    assert pre_layerings(globe(2), 0).n == 1
    assert pre_layerings(globe(2), 1).n == 1
    assert pre_layerings(globe(2), -1).n == 1


def test_layerings_path_and_whiskers(horiz):
    lays = layerings(path(3), 0)
    assert len(lays) == 1 and [l.size() for l in lays[0]] == [3, 3, 3]
    assert len(layerings(horiz, 1)) == 2
    assert len(layerings(globe(2), 1)) == 1
    assert len(layerings(globe(2), -1)) == 1


def test_orderings(horiz):
    assert len(orderings(path(3), 0)) == 1
    assert len(orderings(horiz, 1)) == 2


def test_pre_orderings_two_path():
    po = pre_orderings(path(2), 0)
    assert po.n == 2


def test_layering_to_ordering(horiz):
    lays = layerings(path(2), 0)
    part = layering_to_ordering(path(2), lays[0], 0)
    assert part == (frozenset({(1, 0)}), frozenset({(1, 1)}))
    trivial = [lay for lay in pre_layerings(horiz, 0).elements if len(lay) == 1][0]
    part = layering_to_ordering(horiz, trivial, 0)
    assert len(part) == 1 and len(part[0]) == 2


def test_frame_acyclic_small(horiz, vert):
    for mol in (globe(3), path(4), horiz, vert, oriental(3)):
        assert is_frame_acyclic(mol)


def test_frame_acyclic_low_dim(corpus):
    # every molecule of dimension <= 3 is frame-acyclic
    for mol in corpus:
        assert mol.dim <= 3
        res = is_frame_acyclic(mol)
        assert res.ok, (mol.counts, res.offending, res.cycle)


def test_hasse_acyclic_implies_frame_acyclic(corpus):
    for mol in corpus[:40]:
        if is_hasse_acyclic(mol.poset):
            assert is_frame_acyclic(mol)


def test_layering_to_ordering_injective_order_preserving(corpus):
    # no frame-acyclicity assumption on this one
    for mol in corpus[:30]:
        for k in range(mol.dim):
            pl = pre_layerings(mol, k)
            if pl.n > 120:
                continue
            images = [layering_to_ordering(mol, lay, k) for lay in pl.elements]
            assert len(set(images)) == pl.n
            po = pre_orderings(mol, k)
            index = {part: i for i, part in enumerate(po.elements)}
            for i in range(pl.n):
                for j in range(pl.n):
                    if pl.leq(i, j):
                        assert po.leq(index[images[i]], index[images[j]])


def test_check_layering_theory_examples(horiz):
    rep = check_layering_theory(path(3), 0)
    assert rep["iso"] and rep["pre_layerings"] == 4 and rep["pre_orderings"] == 4
    rep = check_layering_theory(horiz, 1)
    assert rep["iso"] and rep["layerings"] == 2 and rep["orderings"] == 2


def test_check_layering_theory_precondition():
    with pytest.raises(PreconditionError):
        check_layering_theory(globe(2), 5)
    with pytest.raises(PreconditionError):
        check_layering_theory(path(3), -1)


def test_check_layering_theory_random(corpus):
    for mol in corpus[:40]:
        r = frame_dim(mol)
        for k in range(max(r, 0), mol.dim):
            rep = check_layering_theory(mol, k)
            assert rep["iso"], (mol.counts, k, rep)


def unrefined_preorderings(need, full, partitions):
    """The partitions, among ``partitions`` of the flow vertices ``full``,
    that no ordering refines, tried as clause (d) of
    ``check_layering_theory`` is proved: a topological sort of each block,
    concatenated, must be an ordering that refines the partition."""
    ords = set(_chains(need, full, _minimal_blocks))
    out = []
    for partition in partitions:
        sorts = [_chains(need, block, _minimal_blocks)[:1] for block in partition]
        if not all(sorts):
            out.append(partition)
            continue
        candidate = tuple(b for (first,) in sorts for b in first)
        if candidate not in ords or not flow._refines(candidate, partition):
            out.append(partition)
    return out


def test_every_preordering_is_refined_by_an_ordering(corpus):
    reports = 0
    for mol in corpus + [oriental(n) for n in range(2, 6)]:
        if not is_frame_acyclic(mol):
            continue
        for k in range(max(frame_dim(mol), 0), mol.dim):
            assert check_layering_theory(mol, k)["iso"], (mol.counts, k)
            order, need = maxflow(mol, k)._need()
            full = (1 << len(order)) - 1
            preords = _chains(need, full, down_sets)
            assert unrefined_preorderings(need, full, preords) == [], (mol.counts, k)
            reports += 1
    assert reports == 451


def test_unrefined_preorderings_finds_what_no_ordering_refines():
    # path(3) at 0: the flow graph is a -> b -> c; blocks out of order, and a
    # block with a cycle, are refined by no ordering
    _, need = maxflow(path(3), 0)._need()
    a, b, c = (1 << p for p in range(3))
    good = [(a, b | c), (a, b, c)]
    bad = [(c, a | b), (b | c, a)]
    assert unrefined_preorderings(need, a | b | c, good + bad) == bad
    assert unrefined_preorderings([0b11, 0b11], 0b11, [(0b11,)]) == [(0b11,)]


def test_flow_graph_acyclic_at_top_for_frame_acyclic(corpus):
    from dcx import submolecules

    for mol in corpus[:15]:
        if not is_frame_acyclic(mol):
            continue
        for sub in submolecules(mol):
            Q, _ = sub.subset.extract()
            from dcx import Molecule

            m = Molecule(Q)
            assert maxflow(m, m.dim - 1).is_acyclic()


# -- the enumerations that down_sets replaced, kept as oracles ----------------


def predecessors(fg):
    """The predecessors of each vertex, self-loops left out."""
    preds = {v: set() for v in fg.vertices}
    for a, b in fg.edges:
        if a != b:
            preds[b].add(a)
    return preds


def oracle_ordered_partitions(fg):
    """Every ordered partition whose blocks are predecessor-closed in what
    is left, each block drawn from all subsets by ``itertools``."""
    preds = predecessors(fg)
    out = []

    def rec(remaining, acc):
        if not remaining:
            out.append(tuple(acc))
            return
        rem = sorted(remaining)
        for r in range(1, len(rem) + 1):
            for combo in itertools.combinations(rem, r):
                block = frozenset(combo)
                if all(preds[v] & remaining <= block for v in block):
                    rec(remaining - block, acc + [block])

    rec(frozenset(fg.vertices), [])
    return out


def oracle_topological_sorts(fg):
    """Topological sorts, the smallest free vertex tried first."""
    preds = predecessors(fg)
    out = []

    def rec(remaining, acc):
        if not remaining:
            out.append(tuple(acc))
            return
        for v in sorted(remaining):
            if not preds[v] & remaining:
                rec(remaining - {v}, acc + [v])

    rec(frozenset(fg.vertices), [])
    return out


def oracle_partition_covers(partition, preds):
    """Every split of one block in two, by all 2^n - 2 assignments."""
    out = set()
    for i, block in enumerate(partition):
        members = sorted(block)
        n = len(members)
        for assign in range(1, (1 << n) - 1):
            first = frozenset(members[t] for t in range(n) if assign >> t & 1)
            second = block - first
            if not any(preds[v] & second for v in first):
                out.add(partition[:i] + (first, second) + partition[i + 1:])
    return out


def pre_ordering_key(partition):
    return [sorted(b) for b in partition]


def assert_flow_matches_oracles(fg):
    order, need = fg._need()
    full = (1 << len(order)) - 1
    parts = _chains(need, full, down_sets)
    frozen = [flow._frozen(order, c) for c in parts]
    oracle = oracle_ordered_partitions(fg)
    assert sorted(frozen, key=pre_ordering_key) == sorted(oracle, key=pre_ordering_key)
    assert len(set(frozen)) == len(frozen)
    assert fg.topological_sorts() == oracle_topological_sorts(fg)
    preds = predecessors(fg)
    for part, ints in zip(frozen, parts):
        covers = {flow._frozen(order, c) for c in flow._partition_covers(ints, need)}
        assert covers == oracle_partition_covers(part, preds)
    return oracle


def test_flow_enumerations_match_oracles(corpus):
    cases = 0
    for mol in corpus[:60]:
        for k in range(-1, mol.dim + 1):
            fg = maxflow(mol, k)
            if len(fg.vertices) > 5:
                continue
            cases += 1
            oracle = assert_flow_matches_oracles(fg)
            items = sorted(oracle, key=pre_ordering_key)
            expect = FinPoset.from_leq(items, lambda coarse, fine: flow._refines(fine, coarse))
            po = pre_orderings(mol, k)
            assert po.elements == items
            pairs = [(i, j) for i in range(po.n) for j in range(po.n)]
            assert [po.leq(i, j) for i, j in pairs] == [expect.leq(i, j) for i, j in pairs]
            assert orderings(mol, k) == [
                tuple(frozenset([v]) for v in s) for s in oracle_topological_sorts(fg)
            ]
    assert cases >= 150


def test_cyclic_flow_graph_keeps_the_cycle_in_one_block():
    a, b, c, d = (1, 0), (1, 1), (1, 2), (1, 3)
    fg = FlowGraph((c, a, d, b), frozenset({(a, b), (b, a), (b, c), (c, d), (d, d)}))
    assert not fg.is_acyclic()
    assert fg.topological_sorts() == []
    oracle = assert_flow_matches_oracles(fg)
    assert sorted(oracle, key=pre_ordering_key) == [
        (frozenset({a, b}), frozenset({c}), frozenset({d})),
        (frozenset({a, b}), frozenset({c, d})),
        (frozenset({a, b, c}), frozenset({d})),
        (frozenset({a, b, c, d}),),
    ]


def test_chains_of_four_unrelated_vertices():
    # 24 orderings, each a topological sort, and 75 pre-orderings
    fg = FlowGraph(tuple((1, i) for i in range(4)), frozenset())
    order, need = fg._need()
    full = (1 << len(order)) - 1
    chains = _chains(need, full, _minimal_blocks)
    parts = _chains(need, full, down_sets)
    assert (len(chains), len(parts), len(set(parts))) == (24, 75, 75)
    assert fg.topological_sorts() == [tuple(order[b.bit_length() - 1] for b in c) for c in chains]
    assert chains == sorted(chains) and parts == sorted(parts)


def test_refinement_matrices_agree(corpus):
    # the order comparison that check_layering_theory's docstring proves from
    # the cover check, compared pair by pair on every pre-layering poset of
    # at most 400 elements
    pairs = 0
    for mol in corpus[:40]:
        P = mol.poset
        for k in range(max(frame_dim(mol), 0), mol.dim):
            assert check_layering_theory(mol, k)["iso"]
            prelays = flow._sorted_prelayerings(P, k)
            if len(prelays) > 400:
                continue
            order = tuple(sorted(maxflow(mol, k).vertices))
            images = [flow._layer_blocks(P, order, lay) for lay in prelays]
            for fine, fine_image in zip(prelays, images):
                for coarse, coarse_image in zip(prelays, images):
                    assert flow._refines(fine, coarse) == flow._refines(fine_image, coarse_image)
                    pairs += 1
    assert pairs > 1000



def test_theory_counts_match_the_enumerations(corpus):
    # the enumeration of orderings and pre-orderings that the cover check
    # makes unneeded, kept as its oracle: the images of the pre-layerings
    # are every pre-ordering, and the reported counts are the true ones
    cases = 0
    for mol in corpus[:40] + [oriental(n) for n in range(2, 6)]:
        P = mol.poset
        for k in range(max(frame_dim(mol), 0), mol.dim):
            rep = check_layering_theory(mol, k)
            assert rep["iso"], (mol.counts, k)
            order, need = maxflow(mol, k)._need()
            full = (1 << len(order)) - 1
            images = {flow._layer_blocks(P, order, lay) for lay in flow._sorted_prelayerings(P, k)}
            assert images == set(_chains(need, full, down_sets)), (mol.counts, k)
            assert rep["orderings"] == len(orderings(mol, k))
            assert rep["pre_orderings"] == pre_orderings(mol, k).n
            cases += 1
    assert cases == 96


def test_theory_check_enumerates_no_chains(corpus, monkeypatch):
    """``check_layering_theory`` decides from the pre-layerings and their
    covers alone: it never lists orderings or pre-orderings."""
    calls = []
    real = flow._chains

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "_chains", counted)
    for mol in corpus[:40]:
        for k in range(max(frame_dim(mol), 0), mol.dim):
            assert check_layering_theory(mol, k)["iso"], (mol.counts, k)
    assert calls == []


def drop_first_cover(monkeypatch):
    """Patch ``_partition_covers`` to leave out the least one-split of each
    pre-ordering, so that no cover check can pass."""
    real = flow._partition_covers

    def dropped(partition, need):
        return set(sorted(real(partition, need))[1:])

    monkeypatch.setattr(flow, "_partition_covers", dropped)


def test_theory_fails_without_a_layering(monkeypatch):
    real = flow._sorted_prelayerings

    def fewer_layers(P, k):
        # path(3) at 0 has three flow vertices
        return [lay for lay in real(P, k) if len(lay) < 3]

    monkeypatch.setattr(flow, "_sorted_prelayerings", fewer_layers)
    rep = check_layering_theory(path(3), 0)
    assert not rep["iso"] and rep["counterexample"] == "no layering exists"
    assert rep["layerings"] == 0


def test_theory_fails_when_two_prelayerings_share_an_image(horiz, monkeypatch):
    real = flow._layer_blocks
    # horiz at 1: the two layerings map to (x, y) and (y, x); sorting the
    # blocks sends both to one image
    monkeypatch.setattr(flow, "_layer_blocks", lambda *args: tuple(sorted(real(*args))))
    rep = check_layering_theory(horiz, 1)
    assert not rep["iso"]
    assert rep["counterexample"] == "pre-layerings do not biject with pre-orderings"


def test_theory_fails_when_a_cover_is_dropped(monkeypatch):
    drop_first_cover(monkeypatch)
    rep = check_layering_theory(path(3), 0)
    assert not rep["iso"]
    assert rep["counterexample"] == {
        "pre_layering": [[(0, 0), (0, 1), (1, 0)], [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]],
        "reason": "covers not preserved and reflected",
    }


# -- the superset scan and its exact fallback -----------------------------------


def dim4_slice():
    """Random molecules up to dimension 4; 18 of these 80 have dimension 4."""
    return random_molecules(80, seed=3, max_elements=18, max_dim=4)


def test_candidate_closure_contains_the_submolecules(corpus):
    for mol in corpus + [oriental(n) for n in range(6)] + dim4_slice():
        P = mol.poset
        full = P.full_masks()
        exact = submolecules_masks(P, full)
        assert exact.keys() <= candidate_closure_masks(P, full).keys(), mol.counts


def exact_frame_acyclicity(U):
    """The loop over the exact submolecules that the superset scan precedes."""
    P = U.poset
    for masks in submolecules_masks(P, P.full_masks()):
        cycle = flow._flow_cycle(P, masks)
        if cycle is not None:
            return FrameAcyclicity(False, Closed(P, masks), cycle)
    return FrameAcyclicity(True)


def report_cycles_on(monkeypatch, targets):
    """Patch the flow rows of the subsets in ``targets`` to carry a
    self-loop at their first vertex; the scan and the exact loop both read
    a subset's flow graph through ``_flow_rows``."""
    real = flow._flow_rows

    def patched(P, masks):
        rows, high = real(P, masks)
        if masks in targets and high:
            first = (high & -high).bit_length() - 1
            rows = list(rows)
            rows[first] |= 1 << first
        return rows, high

    monkeypatch.setattr(flow, "_flow_rows", patched)


def test_cycle_off_the_submolecules_is_not_reported(corpus, monkeypatch):
    real_closure = flow.candidate_closure_masks
    fallbacks = []
    real_exact = flow.submolecules_masks

    def exact(P, masks):
        fallbacks.append(masks)
        return real_exact(P, masks)

    monkeypatch.setattr(flow, "submolecules_masks", exact)
    cases = 0
    for mol in corpus[:30]:
        P = mol.poset
        points = P.full_masks() & P.upto(0)
        if points.bit_count() < 2:
            continue
        # the points of a molecule with two or more of them: closed, not connected
        assert points not in real_exact(P, P.full_masks())
        with monkeypatch.context() as m:
            m.setattr(
                flow,
                "candidate_closure_masks",
                lambda Q, masks: {**real_closure(Q, masks), points: []},
            )
            report_cycles_on(m, {points})
            del fallbacks[:]
            res = is_frame_acyclic(Molecule(OgPoset(P.counts, P.faces), mol.cert))
        assert res.ok and res.offending is None and res.cycle is None
        assert fallbacks == [P.full_masks()]
        cases += 1
    assert cases == 29


def test_cycle_on_a_submolecule_matches_the_exact_loop(corpus, monkeypatch):
    cases = 0
    for mol in corpus[:20] + [oriental(4)]:
        P = mol.poset
        subs = list(submolecules_masks(P, P.full_masks()))
        # one target, then several, so that the answer depends on the order
        # of the exact loop
        for targets in ({subs[-1]}, {m for m in subs if m.bit_count() % 3 == 0}):
            with monkeypatch.context() as m:
                report_cycles_on(m, targets)
                want = exact_frame_acyclicity(mol)
                got = is_frame_acyclic(Molecule(OgPoset(P.counts, P.faces), mol.cert))
            assert got.ok == want.ok
            if not want.ok:
                assert got.offending.masks == want.offending.masks
                assert got.cycle == want.cycle
                cases += 1
    assert cases >= 40


def test_layering_theory_scans_each_molecule_once(monkeypatch):
    """``check_layering_theory`` asks for frame-acyclicity at every k, and
    the answer is memoised on the poset, so the superset scan runs once."""
    real = flow.candidate_closure_masks
    scans = []

    def counted(P, masks):
        scans.append(masks)
        return real(P, masks)

    monkeypatch.setattr(flow, "candidate_closure_masks", counted)
    U = oriental(3)
    mol = Molecule(OgPoset(U.poset.counts, U.poset.faces), U.cert)
    for k in range(max(frame_dim(mol), 0), mol.dim):
        assert check_layering_theory(mol, k)["iso"], k
    assert scans == [mol.poset.full_masks()]


def test_scan_leaves_recognition_exact(small_corpus, monkeypatch):
    def snapshot(P):
        return dict(P._memo.get("mol", {}))

    def forbidden(*args):
        raise AssertionError("recognition called by the scan")

    for mol in small_corpus[:30] + [oriental(4)]:
        P = OgPoset(mol.poset.counts, mol.poset.faces)
        U = Molecule(P, molecule.mol_cert(P, P.full_masks()))
        before = snapshot(P)
        with monkeypatch.context() as m:
            m.setattr(molecule, "mol_cert", forbidden)
            m.setattr(molecule, "splits_masks", forbidden)
            m.setattr(flow, "submolecules_masks", forbidden)
            candidate_closure_masks(P, P.full_masks())
            assert is_frame_acyclic(U)
        assert snapshot(P) == before
