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
from .molecule import Molecule, _memo, splits_masks, submolecules_masks
from .molecule import mol_cert as mol_cert  # perfbench's tests read dcx.flow.mol_cert
from .ogposet import Closed, El, Masks, OgPoset, _bits, find_cycle
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
        return find_cycle(self.vertices, self.edges)

    def predecessors(self) -> dict[El, set]:
        """The predecessors of each vertex, self-loops left out."""
        preds: dict[El, set] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            if a != b:
                preds[b].add(a)
        return preds

    def topological_sorts(self, cap: Optional[int] = None) -> list[tuple[El, ...]]:
        preds = self.predecessors()
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

        rec(set(self.vertices), [])
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


def _sorted_prelayerings(P: OgPoset, k: int) -> list[Layering]:
    """The k-pre-layerings of the whole poset, sorted.  For k < 0 only the
    trivial pre-layering exists."""
    return sorted(_prelayerings_masks(P, P.full_masks(), k))


def pre_layerings(U: Molecule, k: int) -> FinPoset:
    """Poset of k-pre-layerings of U ordered by refinement.

    Elements are tuples of layer subsets (as Closed values).  For k = -1
    only the trivial pre-layering exists.
    """
    P = U.poset
    items = _sorted_prelayerings(P, k)
    flat = [_flat_layers(P, lay) for lay in items]
    elements = [tuple(Closed(P, m) for m in lay) for lay in items]
    leq = [
        [_refines(flat[j], flat[i]) for j in range(len(flat))]
        for i in range(len(flat))
    ]
    return FinPoset(elements, leq)


def _flat_layers(P: OgPoset, lay: Layering) -> tuple[int, ...]:
    return tuple(P.flatten_masks(m) for m in lay)


def _refines(fine: tuple, coarse: tuple) -> bool:
    """True iff ``fine`` refines ``coarse`` by grouping consecutive blocks.

    Blocks are anything with ``|`` as union and ``==``: flattened layers
    or blocks of vertices.
    """
    j = 0
    for block in coarse:
        acc = None
        while acc != block:
            if j == len(fine) or (acc is not None and acc | block != block):
                return False
            acc = fine[j] if acc is None else acc | fine[j]
            j += 1
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
    return [
        tuple(Closed(P, m) for m in lay)
        for lay in _sorted_prelayerings(P, k)
        if len(lay) == want
    ]


# -- pre-orderings -----------------------------------------------------------


def _ordered_partitions(fg: FlowGraph, cap: Optional[int] = None) -> list[Partition]:
    """Linearly ordered partitions whose blocks respect the edge order.

    The first block must be closed under predecessors; recurse on the rest.
    Stops early once ``cap`` partitions have been produced.
    """
    preds = fg.predecessors()
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

    rec(frozenset(fg.vertices), [])
    return out


def pre_orderings(U: Molecule, k: int) -> FinPoset:
    """Poset of k-pre-orderings of U (edge-compatible ordered partitions of
    the flow-graph vertices), ordered by refinement."""
    fg = maxflow(U, k)
    items = sorted(_ordered_partitions(fg), key=lambda p: [sorted(b) for b in p])
    return FinPoset.from_leq(items, lambda coarse, fine: _refines(fine, coarse))


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
    layers = tuple(layer.masks for layer in layering)
    return _vertex_partition(maxflow(U, k).vertices, layers)


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


def _partition_covers(partition: Partition, preds: dict[El, set]) -> set[Partition]:
    """Pre-orderings obtained by splitting exactly one block in two."""
    out = set()
    for i, block in enumerate(partition):
        members = sorted(block)
        n = len(members)
        for assign in range(1, (1 << n) - 1):
            first = frozenset(members[t] for t in range(n) if assign >> t & 1)
            second = block - first
            if any(preds[v] & second for v in first):
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

    prelays = _sorted_prelayerings(P, k)
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

    preords = _ordered_partitions(fg, cap=len(prelays) + 1)
    report["pre_layerings"] = len(prelays)
    report["pre_orderings"] = len(preords)
    images = [_vertex_partition(fg.vertices, lay) for lay in prelays]
    if len(set(images)) != len(prelays) or set(images) != set(preords):
        return fail("pre-layerings do not biject with pre-orderings")
    image_of = dict(zip(prelays, images))
    preds = fg.predecessors()
    for lay in prelays:
        lhs = {image_of[c] for c in _prelayering_covers(P, lay, k)}
        rhs = _partition_covers(image_of[lay], preds)
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
        flat = [_flat_layers(P, lay) for lay in prelays]
        for i, li in enumerate(prelays):
            for j, lj in enumerate(prelays):
                lhs = _refines(flat[j], flat[i])
                rhs = _refines(image_of[lj], image_of[li])
                if lhs != rhs:
                    return fail({"pair": [i, j], "reason": "order mismatch"})

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
        if candidate not in set(ords) or not _refines(candidate, partition):
            return fail(
                {
                    "pre_ordering": [sorted(b) for b in partition],
                    "reason": "not refined by any ordering",
                }
            )
    return report
