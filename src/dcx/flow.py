"""Frame dimension, flow graphs, layerings, orderings, frame-acyclicity.

A k-pre-layering decomposes a molecule as an ordered k-pasting of
submolecules; a k-layering has one layer per maximal element of dimension
above k.  The maximal k-flow graph links maximal elements whose output and
input k-frames meet, and pre-orderings are the linearly ordered partitions
of its vertices compatible with the edges: each block is a down-set of what
the earlier blocks leave, drawn from :func:`~dcx.ogposet.down_sets`, and
orderings are the case with one vertex per block.  Their comparison with
the pre-layerings (:func:`check_layering_theory`) is decided by covers: it
maps each pre-layering to an ordered partition and matches one-split
refinements on both sides, with no list of orderings or pre-orderings.
Frame-acyclicity asks every submolecule's flow graph, taken at that
submolecule's own frame dimension, to be acyclic; it is decided on a
superset of the submolecules that needs no recognition, and only a cycle
found there sends it to the exact submolecules.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError
from .molecule import Molecule, candidate_closure_masks, splits_masks, submolecules_masks
from .molecule import mol_cert as mol_cert  # perfbench's tests read dcx.flow.mol_cert
from .ogposet import Closed, El, Masks, OgPoset, _bits, _memoised
from .ogposet import closed_rows, down_sets, find_cycle
from .posets import FinPoset

Layering = tuple[Masks, ...]
Partition = tuple[frozenset, ...]


def frame_dim_masks(P: OgPoset, masks: Masks) -> int:
    """The dimension of the elements lying in the closures of two or more
    maximal elements of the subset, found in one pass: ``seen`` is the
    union of the closures met so far."""
    acc = seen = 0
    for p in _bits(P.maximal_masks(masks)):
        acc |= seen & P.cl_el[p]
        seen |= P.cl_el[p]
    return P.masks_dim(acc)


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
        """A cycle by :func:`~dcx.ogposet.find_cycle`, over the vertices in
        the order given."""
        order = self.vertices
        cycle = find_cycle(self._rows(order, False), (1 << len(order)) - 1)
        return None if cycle is None else [order[p] for p in cycle]

    def _rows(self, order: tuple[El, ...], back: bool) -> list[int]:
        """Bit q of row p: an edge from the p-th vertex of ``order`` to the
        q-th, or from the q-th to the p-th when ``back`` is set."""
        pos = {v: p for p, v in enumerate(order)}
        rows = [0] * len(order)
        for a, b in self.edges:
            if back:
                a, b = b, a
            rows[pos[a]] |= 1 << pos[b]
        return rows

    def _need(self) -> tuple[tuple[El, ...], list[int]]:
        """The vertices in sorted order, and for each position the positions
        of its ancestors, itself included (self-loops change nothing)."""
        order = tuple(sorted(self.vertices))
        return order, closed_rows(self._rows(order, True), (1 << len(order)) - 1)

    def topological_sorts(self) -> list[tuple[El, ...]]:
        """The topological sorts in lexicographic order."""
        order, need = self._need()
        chains = _chains(need, (1 << len(order)) - 1, _minimal_blocks)
        return [tuple(order[b.bit_length() - 1] for b in chain) for chain in chains]


def maxflow_masks(P: OgPoset, masks: Masks, k: int) -> FlowGraph:
    """The maximal k-flow graph of a subset: its maximal elements above k,
    with the edges of ``Level.succ`` at k among them."""
    high = P.maximal_masks(masks) & ~P.upto(k)
    succ = P.level(k).succ
    mx = dict(zip(_bits(high), P.masks_els(high)))
    edges = frozenset((mx[p], mx[q]) for p in mx for q in _bits(succ[p] & high))
    return FlowGraph(tuple(mx.values()), edges)


def maxflow(U: Molecule, k: int) -> FlowGraph:
    """The maximal k-flow graph of U (edgeless for k = -1)."""
    return maxflow_masks(U.poset, U.poset.full_masks(), k)


# -- pre-layerings ---------------------------------------------------------


@_memoised("prelay")
def _prelayerings_masks(P: OgPoset, masks: Masks, k: int) -> list[Layering]:
    out: list[Layering] = [(masks,)]
    for left, right in splits_masks(P, masks, k):
        for rest in _prelayerings_masks(P, right, k):
            out.append((left,) + rest)
    return out


def _sorted_prelayerings(P: OgPoset, k: int) -> list[Layering]:
    """The k-pre-layerings of the whole poset, sorted.  For k < 0 only the
    trivial pre-layering exists.  Layers compare by their per-dimension
    view."""
    items = _prelayerings_masks(P, P.full_masks(), k)
    return sorted(items, key=lambda lay: tuple(map(P.masks_by_dim, lay)))


def pre_layerings(U: Molecule, k: int) -> FinPoset:
    """Poset of k-pre-layerings of U ordered by refinement.

    Elements are tuples of layer subsets (as Closed values).  For k = -1
    only the trivial pre-layering exists.
    """
    P = U.poset
    items = _sorted_prelayerings(P, k)
    elements = [tuple(Closed(P, m) for m in lay) for lay in items]
    leq = [[_refines(fine, coarse) for fine in items] for coarse in items]
    return FinPoset(elements, leq)


def _refines(fine: tuple, coarse: tuple) -> bool:
    """True iff ``fine`` refines ``coarse`` by grouping consecutive blocks.

    Blocks are anything with ``|`` as union and ``==``: layers or blocks of
    vertices.
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


def layerings(U: Molecule, k: int) -> list[tuple[Closed, ...]]:
    """The k-layerings: pre-layerings with one layer per maximal element of
    dimension above k."""
    P = U.poset
    want = len(maxflow(U, k).vertices)
    return [
        tuple(Closed(P, m) for m in lay)
        for lay in _sorted_prelayerings(P, k)
        if len(lay) == want
    ]


# -- pre-orderings -----------------------------------------------------------


def _chains(need: list[int], within: int, first) -> list[tuple[int, ...]]:
    """Ordered partitions of ``within`` into blocks, as bitmasks.

    Each block is a nonempty set drawn by ``first(need, rest)`` from what
    the earlier blocks leave; that rest is convex whenever ``within`` is.
    ``first`` is :func:`down_sets` for pre-orderings and
    :func:`_minimal_blocks` for orderings.  Partitions come in increasing
    order of their blocks.
    """
    out: list[tuple[int, ...]] = []

    def rec(rest: int, acc: tuple):
        if not rest:
            out.append(acc)
            return
        for block in first(need, rest):
            if block:
                rec(rest & ~block, acc + (block,))

    rec(within, ())
    return out


def _minimal_blocks(need: list[int], rest: int) -> list[int]:
    """The one-element down-sets of ``rest``: the blocks of an ordering."""
    return [1 << p for p in _bits(rest) if need[p] & rest == 1 << p]


def _frozen(order: tuple[El, ...], partition: tuple[int, ...]) -> Partition:
    return tuple(frozenset(order[p] for p in _bits(block)) for block in partition)


def _layer_blocks(P: OgPoset, order: tuple[El, ...], lay: Layering) -> tuple[int, ...]:
    """Block i holds the positions in ``order`` of the flow vertices lying in
    layer i."""
    return tuple(
        sum(1 << p for p, v in enumerate(order) if layer >> P.pos(v) & 1) for layer in lay
    )


def pre_orderings(U: Molecule, k: int) -> FinPoset:
    """Poset of k-pre-orderings of U (edge-compatible ordered partitions of
    the flow-graph vertices), ordered by refinement."""
    order, need = maxflow(U, k)._need()
    chains = _chains(need, (1 << len(order)) - 1, down_sets)
    items = sorted((_frozen(order, c) for c in chains), key=lambda p: [sorted(b) for b in p])
    return FinPoset.from_leq(items, lambda coarse, fine: _refines(fine, coarse))


def orderings(U: Molecule, k: int) -> list[Partition]:
    """The k-orderings: singleton-block pre-orderings, i.e. topological
    sorts of the flow graph."""
    return [tuple(frozenset([v]) for v in s) for s in maxflow(U, k).topological_sorts()]


def layering_to_ordering(U: Molecule, layering: tuple[Closed, ...], k: int) -> Partition:
    """Block i of the induced partition holds the flow-graph vertices lying
    in layer i."""
    order = tuple(sorted(maxflow(U, k).vertices))
    lay = tuple(layer.masks for layer in layering)
    return _frozen(order, _layer_blocks(U.poset, order, lay))


# -- frame-acyclicity ----------------------------------------------------------


@dataclass
class FrameAcyclicity:
    ok: bool
    offending: Optional[Closed] = None
    cycle: Optional[list[El]] = None

    def __bool__(self):
        return self.ok


def is_frame_acyclic(U: Molecule) -> FrameAcyclicity:
    """Check every submolecule's flow graph at its own frame dimension.

    The scan runs first over :func:`~dcx.molecule.candidate_closure_masks`:
    the closure of U under boundaries and under the membrane rebuild of
    every split candidate, with no boundary comparison and no recognition.
    It contains every submolecule.  The :func:`~dcx.molecule.splits_masks`
    and :func:`~dcx.molecule._membrane_splits` docstrings prove that every
    k-split of a subset is one of its candidates and that the candidate's
    rebuild is that split.  So by induction along a witness of
    :func:`~dcx.molecule.submolecules_masks`, whose steps are boundaries and
    split sides, the scan reaches each submolecule.  If no member of the
    superset has a flow cycle, no submolecule has one: U is frame-acyclic.

    A member with a cycle need not be a submolecule, so then the exact loop
    over :func:`~dcx.molecule.submolecules_masks` runs as it always has: a
    negative answer, its offending submolecule and its cycle are the first
    that the exact order meets.  Such an input pays for both scans.  The
    answer is decided once per poset (:func:`_frame_cycle`).
    """
    P = U.poset
    found = _frame_cycle(P, P.full_masks())
    if found is None:
        return FrameAcyclicity(True)
    return FrameAcyclicity(False, Closed(P, found[0]), list(found[1]))


@_memoised("acyclic")
def _frame_cycle(P: OgPoset, full: Masks) -> Optional[tuple[Masks, tuple[El, ...]]]:
    """The scans of :func:`is_frame_acyclic` on the whole poset ``full``:
    None, or the offending submolecule and its cycle, as plain data, so the
    "acyclic" memo does not hold the poset it lives on."""
    if all(_flow_cycle(P, masks) is None for masks in candidate_closure_masks(P, full)):
        return None
    for masks in submolecules_masks(P, full):
        cycle = _flow_cycle(P, masks)
        if cycle is not None:
            return masks, tuple(cycle)
    return None


def _flow_cycle(P: OgPoset, masks: Masks) -> Optional[list[El]]:
    """A cycle of the maximal flow graph of ``masks`` at its own frame
    dimension, or None."""
    rows, high = _flow_rows(P, masks)
    cycle = find_cycle(rows, high)
    if cycle is None:
        return None
    els = dict(zip(_bits(high), P.masks_els(high)))
    return [els[p] for p in cycle]


def _flow_rows(P: OgPoset, masks: Masks) -> tuple[list[int], Masks]:
    """The maximal flow graph of ``masks`` at its own frame dimension r, for
    :func:`~dcx.ogposet.find_cycle`: the flow successors of the level-r
    table, and the maximal elements of ``masks`` above r."""
    r = frame_dim_masks(P, masks)
    return P.level(r).succ, P.maximal_masks(masks) & ~P.upto(r)


# -- the comparison between layerings and orderings -----------------------------


def _prelayering_covers(P: OgPoset, lay: Layering, k: int) -> set[Layering]:
    """Pre-layerings obtained by splitting exactly one layer in two.

    The splits of a layer, in :func:`splits_masks` order, are its
    pre-layerings with two layers: each split followed by the trivial
    pre-layering of its right side.  They are read from the "prelay" memo,
    as the same layer recurs in many pre-layerings."""
    out = set()
    for i, layer in enumerate(lay):
        for split in _prelayerings_masks(P, layer, k):
            if len(split) == 2:
                out.add(lay[:i] + split + lay[i + 1:])
    return out


def _partition_covers(partition: tuple[int, ...], need: list[int]) -> set[tuple[int, ...]]:
    """Pre-orderings obtained by splitting exactly one block in two.

    The first part must be a proper down-set of the block.  A pre-ordering
    block is convex, so these are the down-sets of the induced graph.
    """
    out = set()
    for i, block in enumerate(partition):
        for first in down_sets(need, block):
            if first and first != block:
                out.add(partition[:i] + (first, block & ~first) + partition[i + 1:])
    return out


def check_layering_theory(U: Molecule, k: int) -> dict:
    """Verify the layering/ordering comparison at level k.

    Requires U frame-acyclic and frame_dim(U) <= k <= dim U - 1.  Claims:
    (a) a k-layering exists; (b) layerings biject with orderings; (c) the
    induced map on pre-layerings is an isomorphism of posets onto the
    pre-orderings; (d) every pre-ordering is refined by an ordering.

    Everything is read off the pre-layerings and the map f
    (:func:`_layer_blocks`) to ordered partitions of the n flow vertices.
    Three things are checked: some pre-layering has n layers; no two
    pre-layerings share an image; and for each pre-layering x, f maps the
    one-split refinements of x (:func:`_prelayering_covers`) onto those of
    f(x) (:func:`_partition_covers`).  Orderings and pre-orderings are
    counted as the distinct images with n blocks and all of them; once the
    checks pass, the proof below makes these the true counts.

    f is onto the pre-orderings:

    - f sends the trivial pre-layering to the trivial pre-ordering.
    - Every pre-layering is reached from the trivial one by one-splits: a
      split of the whole, then a pre-layering of its right side.  A
      one-split of a pre-ordering is again a pre-ordering: a proper down-set
      D of a block B, then B∖D.  So, by the cover check, f lands in the
      pre-orderings.
    - Point 3 below reaches every pre-ordering from the trivial one by
      one-splits, and the cover check returns each of them as an image.

    So f is a bijection onto the pre-orderings that keeps the number of
    blocks, and (b) is f restricted to n blocks.  (d) then cannot fail, so
    it is not checked:

    - The orderings are nonempty, by (a) and (b), so the flow graph has no
      cycle apart from self-loops: two vertices on a cycle never become
      minimal, so no ordering could place them.
    - Each block of a pre-ordering is a down-set of what the earlier blocks
      leave, and the graph restricted to it has no cycle either.  So a
      topological sort of each block, concatenated, is a topological sort of
      the whole: every predecessor of a vertex lies in an earlier block or
      earlier in its own.  That sort is an ordering, and it refines the
      pre-ordering by grouping.

    For (c), f is a bijection of finite posets that preserves and reflects
    covers, which makes it an isomorphism for the order :func:`_refines`:

    1. Refinement is grouping.  Each layer of a pre-layering holds an
       element that no other layer holds: the two sides of a split meet in
       the membrane, of dimension at most k, and each side holds a maximal
       element of dimension above k of the subset split, which the other
       side lacks.  Blocks of a
       pre-ordering are nonempty and disjoint.  So in both posets no proper
       prefix of a group of finer blocks already has the group's union, and
       ``_refines(x, y)`` holds iff x's blocks split into consecutive groups
       whose unions are y's blocks.  Grouping composes, so ``_refines`` is
       transitive, and a one-split refinement refines.
    2. f preserves the order: a flow vertex lies in a union of layers iff
       it lies in one of them, so f turns a grouping of layers into the
       same grouping of blocks.
    3. One-splits generate the order on pre-orderings.  Two consecutive
       blocks of a pre-ordering merge into a pre-ordering: the first is a
       down-set of what the earlier blocks leave, the second of what the
       first leaves too, so their union is a down-set of the former, and
       the first block is a proper down-set of the union.  So if b refines
       c, merging two consecutive blocks of one group of b steps up by one
       split, and induction on the number of blocks gives a chain of
       one-splits from c down to b.  (Each step is a cover, as a strict
       refinement adds a block.)
    4. f reflects the order: if f(x) refines f(y), take such a chain from
       f(y) to f(x).  Each member is f of a unique pre-layering, and the
       checked reflection makes each step a one-split of pre-layerings,
       which refines by point 1; by transitivity x refines y.

    The enumeration of the orderings and pre-orderings, and the full
    comparison of the two refinement matrices, are therefore implied; they
    are kept only as oracles in the tests.
    """
    r = frame_dim(U)
    if not (r <= k <= U.dim - 1):
        raise PreconditionError(f"need frame_dim {r} <= k <= {U.dim - 1}, got k = {k}")
    if not is_frame_acyclic(U):
        raise PreconditionError("molecule is not frame-acyclic")

    P = U.poset
    order, need = maxflow(U, k)._need()
    prelays = _sorted_prelayerings(P, k)
    image_of = {lay: _layer_blocks(P, order, lay) for lay in prelays}
    images = set(image_of.values())
    report: dict = {"k": k, "iso": True, "counterexample": None}
    report["layerings"] = sum(len(lay) == len(order) for lay in prelays)
    report["orderings"] = sum(len(image) == len(order) for image in images)
    report["pre_layerings"], report["pre_orderings"] = len(prelays), len(images)

    def fail(reason):
        report["iso"] = False
        report["counterexample"] = reason
        return report

    if not report["layerings"]:
        return fail("no layering exists")
    if len(images) != len(prelays):
        return fail("pre-layerings do not biject with pre-orderings")
    for lay in prelays:
        covers = {image_of[c] for c in _prelayering_covers(P, lay, k)}
        if covers != _partition_covers(image_of[lay], need):
            laid = [sorted(P.masks_els(m)) for m in lay]
            return fail({"pre_layering": laid, "reason": "covers not preserved and reflected"})
    return report
