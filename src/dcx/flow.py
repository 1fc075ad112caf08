"""Frame dimension, flow graphs, layerings, orderings, frame-acyclicity.

A k-pre-layering decomposes a molecule as an ordered k-pasting of
submolecules; a k-layering has one layer per maximal element of dimension
above k.  The maximal k-flow graph links maximal elements whose output and
input k-frames meet, and pre-orderings are the linearly ordered partitions
of its vertices compatible with the edges.  Frame-acyclicity asks every
submolecule's flow graph, taken at that submolecule's own frame dimension,
to be acyclic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .molecule import Molecule, _memo, mol_cert, splits_masks, submolecules_masks
from .ogposet import Closed, El, Masks, OgPoset, _bits
from .posets import FinPoset

Layering = tuple[Masks, ...]
Partition = tuple[frozenset, ...]


def frame_dim_masks(P: OgPoset, masks: Masks) -> int:
    mx = P.masks_els(P.maximal_masks(masks))
    acc = [0] * len(P.counts)
    for a in range(len(mx)):
        da, ia = mx[a]
        cla = P.cl_el[da][ia]
        for b in range(a + 1, len(mx)):
            db, ib = mx[b]
            clb = P.cl_el[db][ib]
            for d in range(min(len(cla), len(clb))):
                acc[d] |= cla[d] & clb[d]
    return P.masks_dim(tuple(acc))


def frame_dim(U: Molecule) -> int:
    """Dimension of the union of pairwise intersections of closures of
    distinct maximal elements; -1 when there is at most one."""
    return frame_dim_masks(U.poset, U.poset.full_masks())


@dataclass(frozen=True)
class FlowGraph:
    vertices: tuple[El, ...]
    edges: frozenset[tuple[El, El]]

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[list[El]]:
        adj = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
        WHITE, GREY, BLACK = 0, 1, 2
        state = {v: WHITE for v in self.vertices}
        for root in self.vertices:
            if state[root] != WHITE:
                continue
            path = [root]
            stack = [(root, iter(adj[root]))]
            state[root] = GREY
            while stack:
                node, it = stack[-1]
                moved = False
                for nxt in it:
                    if state[nxt] == GREY:
                        return path[path.index(nxt):] + [nxt]
                    if state[nxt] == WHITE:
                        state[nxt] = GREY
                        path.append(nxt)
                        stack.append((nxt, iter(adj[nxt])))
                        moved = True
                        break
                if not moved:
                    state[node] = BLACK
                    path.pop()
                    stack.pop()
        return None

    def topological_sorts(self, cap: Optional[int] = None) -> list[tuple[El, ...]]:
        verts = list(self.vertices)
        preds = {v: set() for v in verts}
        for a, b in self.edges:
            if a != b:
                preds[b].add(a)
        out: list[tuple[El, ...]] = []

        def rec(remaining: set, acc: list):
            if cap is not None and len(out) >= cap:
                return
            if not remaining:
                out.append(tuple(acc))
                return
            for v in sorted(remaining):
                if preds[v] & remaining:
                    continue
                remaining.discard(v)
                acc.append(v)
                rec(remaining, acc)
                acc.pop()
                remaining.add(v)

        rec(set(verts), [])
        return out


def maxflow_masks(P: OgPoset, masks: Masks, k: int) -> FlowGraph:
    mx = [el for el in P.masks_els(P.maximal_masks(masks)) if el[0] > k]
    succ = P.flow_masks(mx, k)
    edges = frozenset(
        (mx[a], mx[b]) for a in range(len(mx)) for b in _bits(succ[a])
    )
    return FlowGraph(tuple(mx), edges)


def maxflow(U: Molecule, k: int) -> FlowGraph:
    """The maximal k-flow graph of U (edgeless for k = -1)."""
    return maxflow_masks(U.poset, U.poset.full_masks(), k)


# -- pre-layerings ---------------------------------------------------------


def _prelayerings_masks(P: OgPoset, masks: Masks, k: int) -> list[Layering]:
    memo = _memo(P, "prelay")
    key = (masks, k)
    if key in memo:
        return memo[key]
    out: list[Layering] = [(masks,)]
    for left, right in splits_masks(P, masks, k):
        for rest in _prelayerings_masks(P, right, k):
            out.append((left,) + rest)
    memo[key] = out
    return out


def pre_layerings(U: Molecule, k: int) -> FinPoset:
    """Poset of k-pre-layerings of U ordered by refinement.

    Elements are tuples of layer subsets (as Closed values).  For k = -1
    only the trivial pre-layering exists.
    """
    P = U.poset
    if k <= -1:
        items = [(P.full_masks(),)]
    else:
        items = sorted(_prelayerings_masks(P, P.full_masks(), k))
    elements = [tuple(Closed(P, m) for m in lay) for lay in items]
    leq = [
        [_refines(items[j], items[i]) for j in range(len(items))]
        for i in range(len(items))
    ]
    return FinPoset(elements, leq)


def _refines(fine: Layering, coarse: Layering) -> bool:
    """True iff `fine` refines `coarse` by consecutive grouping of layers."""
    j = 0
    for block in coarse:
        acc = None
        matched = False
        while j < len(fine):
            acc = fine[j] if acc is None else tuple(a | b for a, b in zip(acc, fine[j]))
            j += 1
            if acc == block:
                matched = True
                break
            if any(a & ~b for a, b in zip(acc, block)):
                return False
        if not matched:
            return False
    return j == len(fine)


def _high_max_count(P: OgPoset, masks: Masks, k: int) -> int:
    mx = P.maximal_masks(masks)
    return sum(
        1 for d in range(k + 1, len(mx)) for _ in _bits(mx[d])
    )


def layerings(U: Molecule, k: int) -> list[tuple[Closed, ...]]:
    """The k-layerings: pre-layerings with one layer per maximal element of
    dimension above k."""
    P = U.poset
    want = _high_max_count(P, P.full_masks(), k)
    if k <= -1:
        items = [(P.full_masks(),)]
    else:
        items = sorted(_prelayerings_masks(P, P.full_masks(), k))
    return [
        tuple(Closed(P, m) for m in lay) for lay in items if len(lay) == want
    ]


# -- pre-orderings -----------------------------------------------------------


def _ordered_partitions(
    vertices: list[El], edges: frozenset, cap: Optional[int] = None
) -> list[Partition]:
    """Linearly ordered partitions whose blocks respect the edge order.

    The first block must be closed under predecessors; recurse on the rest.
    Stops early once ``cap`` partitions have been produced.
    """
    preds: dict[El, set] = {v: set() for v in vertices}
    for a, b in edges:
        if a != b:
            preds[b].add(a)

    out: list[Partition] = []

    def rec(remaining: frozenset, acc: list):
        if cap is not None and len(out) > cap:
            return
        if not remaining:
            out.append(tuple(acc))
            return
        rem = sorted(remaining)
        # enumerate nonempty predecessor-closed subsets of `remaining`
        for r in range(1, len(rem) + 1):
            for combo in itertools.combinations(rem, r):
                block = frozenset(combo)
                ok = all(preds[v] & remaining <= block for v in block)
                if ok:
                    acc.append(block)
                    rec(remaining - block, acc)
                    acc.pop()

    rec(frozenset(vertices), [])
    return out


def pre_orderings(U: Molecule, k: int) -> FinPoset:
    """Poset of k-pre-orderings of U (edge-compatible ordered partitions of
    the flow-graph vertices), ordered by refinement."""
    fg = maxflow(U, k)
    items = sorted(
        _ordered_partitions(list(fg.vertices), fg.edges),
        key=lambda p: [sorted(b) for b in p],
    )
    leq = [
        [_partition_refines(items[j], items[i]) for j in range(len(items))]
        for i in range(len(items))
    ]
    return FinPoset(items, leq)


def _partition_refines(fine: Partition, coarse: Partition) -> bool:
    j = 0
    for block in coarse:
        acc: frozenset = frozenset()
        matched = False
        while j < len(fine):
            acc = acc | fine[j]
            j += 1
            if acc == block:
                matched = True
                break
            if not acc <= block:
                return False
        if not matched:
            return False
    return j == len(fine)


def orderings(U: Molecule, k: int) -> list[Partition]:
    """The k-orderings: singleton-block pre-orderings, i.e. topological
    sorts of the flow graph."""
    fg = maxflow(U, k)
    return [
        tuple(frozenset([v]) for v in sort) for sort in fg.topological_sorts()
    ]


def layering_to_ordering(U: Molecule, layering: tuple[Closed, ...], k: int) -> Partition:
    """Block i of the induced partition holds the flow-graph vertices lying
    in layer i."""
    fg = maxflow(U, k)
    blocks = []
    for layer in layering:
        blocks.append(frozenset(v for v in fg.vertices if v in layer))
    return tuple(blocks)


# -- frame-acyclicity ----------------------------------------------------------


@dataclass
class FrameAcyclicity:
    ok: bool
    offending: Optional[Closed] = None
    cycle: Optional[list[El]] = None

    def __bool__(self):
        return self.ok


def is_frame_acyclic(U: Molecule) -> FrameAcyclicity:
    """Check every submolecule's flow graph at its own frame dimension."""
    P = U.poset
    for masks in submolecules_masks(P, P.full_masks()):
        r = frame_dim_masks(P, masks)
        cycle = maxflow_masks(P, masks, r).find_cycle()
        if cycle is not None:
            return FrameAcyclicity(False, Closed(P, masks), cycle)
    return FrameAcyclicity(True)


# -- the comparison between layerings and orderings -----------------------------


def _prelayering_covers(P: OgPoset, lay: Layering, k: int) -> set[Layering]:
    """Pre-layerings obtained by splitting exactly one layer in two."""
    out = set()
    for i, layer in enumerate(lay):
        for a, b in splits_masks(P, layer, k):
            out.add(lay[:i] + (a, b) + lay[i + 1:])
    return out


def _partition_covers(partition: Partition, edges: frozenset) -> set[Partition]:
    """Pre-orderings obtained by splitting exactly one block in two."""
    out = set()
    inner = [(a, b) for a, b in edges if a != b]
    for i, block in enumerate(partition):
        members = sorted(block)
        n = len(members)
        for assign in range(1, (1 << n) - 1):
            first = frozenset(members[t] for t in range(n) if assign >> t & 1)
            second = block - first
            if any(a in second and b in first for a, b in inner):
                continue
            out.add(partition[:i] + (first, second) + partition[i + 1:])
    return out


def _vertex_partition(vertices, lay: Layering) -> Partition:
    return tuple(
        frozenset(v for v in vertices if layer[v[0]] >> v[1] & 1) for layer in lay
    )


def check_layering_theory(U: Molecule, k: int) -> dict:
    """Verify the layering/ordering comparison at level k.

    Requires U frame-acyclic and frame_dim(U) <= k <= dim U - 1.  Checks:
    (a) a k-layering exists; (b) layerings biject with orderings; (c) the
    induced map on pre-layerings is an isomorphism of posets onto the
    pre-orderings (a cover-preserving bijection); (d) every pre-ordering is
    refined by an ordering.
    """
    r = frame_dim(U)
    if not (r <= k <= U.dim - 1):
        raise PreconditionError(
            f"need frame_dim {r} <= k <= {U.dim - 1}, got k = {k}"
        )
    fa = is_frame_acyclic(U)
    if not fa:
        raise PreconditionError("molecule is not frame-acyclic")

    P = U.poset
    fg = maxflow(U, k)
    report: dict = {"k": k, "iso": True, "counterexample": None}

    def fail(reason):
        report["iso"] = False
        report["counterexample"] = reason
        return report

    prelays = sorted(_prelayerings_masks(P, P.full_masks(), k))
    want = _high_max_count(P, P.full_masks(), k)
    lays = [lay for lay in prelays if len(lay) == want]
    sorts = fg.topological_sorts(cap=len(lays) + 1)
    ords = [tuple(frozenset([v]) for v in s) for s in sorts]
    report["layerings"] = len(lays)
    report["orderings"] = len(ords)
    if not lays:
        return fail("no layering exists")
    mapped = [_vertex_partition(fg.vertices, lay) for lay in lays]
    if len(set(mapped)) != len(mapped) or set(mapped) != set(ords):
        return fail("layerings do not biject with orderings")

    preords = _ordered_partitions(list(fg.vertices), fg.edges, cap=len(prelays) + 1)
    report["pre_layerings"] = len(prelays)
    report["pre_orderings"] = len(preords)
    images = [_vertex_partition(fg.vertices, lay) for lay in prelays]
    if len(set(images)) != len(prelays) or set(images) != set(preords):
        return fail("pre-layerings do not biject with pre-orderings")
    image_of = dict(zip(prelays, images))
    for lay in prelays:
        lhs = {image_of[c] for c in _prelayering_covers(P, lay, k)}
        rhs = _partition_covers(image_of[lay], fg.edges)
        if lhs != rhs:
            return fail(
                {
                    "pre_layering": [
                        sorted(P.masks_els(m)) for m in lay
                    ],
                    "reason": "covers not preserved and reflected",
                }
            )
    if len(prelays) <= 400:
        # small enough: double-check the full relation matrices agree
        index = {partition: pos for pos, partition in enumerate(preords)}
        for i, li in enumerate(prelays):
            for j, lj in enumerate(prelays):
                lhs = _refines(lj, li)
                rhs = _partition_refines(
                    preords[index[image_of[lj]]], preords[index[image_of[li]]]
                )
                if lhs != rhs:
                    return fail({"pair": [i, j], "reason": "order mismatch"})

    preds: dict[El, set] = {v: set() for v in fg.vertices}
    for a, b in fg.edges:
        if a != b:
            preds[b].add(a)
    for partition in preords:
        refining: list[El] = []
        for block in partition:
            remaining = set(block)
            while remaining:
                free = sorted(v for v in remaining if not (preds[v] & remaining))
                if not free:
                    return fail({"reason": "block not sortable", "block": sorted(block)})
                refining.append(free[0])
                remaining.discard(free[0])
        candidate = tuple(frozenset([v]) for v in refining)
        if candidate not in set(ords) or not _partition_refines(candidate, partition):
            return fail(
                {
                    "pre_ordering": [sorted(b) for b in partition],
                    "reason": "not refined by any ordering",
                }
            )
    return report
