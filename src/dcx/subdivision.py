"""Subdivision posets of molecules.

An element of the initial subdivision poset of U at levels S is a
non-degenerate active functor from a theta with pasting levels in S onto
U.  We encode candidates as trees: a Leaf stands for the big cell of its
region (the unique active map from a globe), and a Node at level k pastes
the subdivisions of the layers of a non-trivial k-pre-layering of its
region, with all deeper node levels above k.  Each tree is realised as a
concrete theta-shaped poset with one image subset of U per element.

A subdivision is non-degenerate, so its images alone determine its theta.
``realize`` reads one theta element off each image, with the images of its
faces as the image's boundaries one dimension down, which the leaf that
made the image has already computed.  It raises BoundaryMismatchError when
consecutive layers do not meet along their k-boundaries, and DcxError when
a leaf's boundary has the wrong dimension, when images are shared, or when
two layers give one image different faces.

So a subdivision is keyed by its image set, listed in theta position
order, and no isomorphism search is needed: thetas are molecules, hence
rigid, so two realisations have equal keys exactly when their labelled
thetas are isomorphic.  Distinct trees realising the same subdivision
share the key and collapse.

The refinement order is decided on realisations: a node of the coarser
side must cut the finer side into consecutive chunks over its layers, and
the comparison recurses into the chunks.  Each layer it visits must be
exactly the union of the finer side's images inside it, and it visits
every layer down to the leaves.  ``enumerate_sd`` turns that necessary
condition into bitsets to pick the candidates above each element, then
closes the order finest element first, so that an answer already implied
by transitivity is never asked of ``tree_leq`` again.
"""
from __future__ import annotations

import itertools
from typing import Iterator

from .errors import BoundaryMismatchError, DcxError, PreconditionError
from .flow import _prelayerings_masks
from .homology import HomologyReport, poset_homology
from .molecule import Molecule, _memo, mol_cert
from .ogposet import MINUS, PLUS, El, Masks, OgPoset, _bits
from .posets import FinPoset

# trees: ("leaf", region) | ("node", k, children, region), where a region is
# a subset of the ambient poset
Tree = tuple


def tree_region(tree: Tree) -> Masks:
    return tree[1] if tree[0] == "leaf" else tree[3]


def _subtrees(tree: Tree) -> Iterator[Tree]:
    """The tree and all its subtrees, each before its children."""
    yield tree
    if tree[0] == "node":
        for child in tree[2]:
            yield from _subtrees(child)


class Subdivision:
    """A realised subdivision: a theta poset with image subsets of U.

    ``key`` is the image of each theta element, indexed by its theta
    position; it identifies the subdivision, and elements are listed in key
    order.
    """

    __slots__ = ("ambient", "tree", "theta", "key")

    def __init__(self, ambient: OgPoset, tree: Tree, theta: OgPoset, key: tuple[Masks, ...]):
        self.ambient = ambient
        self.tree = tree
        self.theta = theta
        self.key = key

    @property
    def img(self) -> dict[El, Masks]:
        """The image of each theta element."""
        return dict(zip(self.theta.elements(), self.key))

    @property
    def levels(self) -> set[int]:
        return {t[1] for t in _subtrees(self.tree) if t[0] == "node"}

    def is_big_cell(self) -> bool:
        return self.theta.maximal_masks(self.theta.full_masks()).bit_count() == 1

    def __repr__(self):
        return f"Subdivision(theta_counts={list(self.theta.counts)})"


def realize(P: OgPoset, tree: Tree) -> Subdivision:
    """Realise a subdivision tree over the ambient poset P.

    A leaf images its globe on its region R and the boundaries of R, a node
    the union of its layers' images.  The theta has one element per image,
    numbered by increasing image in each dimension, and the key lists the
    images in that order; the element on m has the elements on the input
    and output boundaries of m one dimension down as faces.  Raises
    BoundaryMismatchError when consecutive layers of a node do not meet
    along their k-boundaries, and DcxError when a leaf boundary has the
    wrong dimension, images are shared, or two layers give one image
    different faces.
    """
    images, size = _images(P, tree)
    if len(images) != size:
        raise DcxError("element-image map is not injective")
    dims = {m: P.masks_dim(m) for m in images}
    key = tuple(sorted(images, key=lambda m: (dims[m], m)))
    counts = [0] * (P.masks_dim(tree_region(tree)) + 1)
    index: dict[Masks, int] = {}
    faces: list[list] = [[] for _ in counts]
    for m in key:
        d = dims[m]
        index[m] = counts[d]
        counts[d] += 1
        if d:
            lo, hi = images[m]
            faces[d].append(((index[lo],), (index[hi],)))
    return Subdivision(P, tree, OgPoset(counts, faces, regular=True), key)


def _images(P: OgPoset, tree: Tree) -> tuple[dict[Masks, tuple], int]:
    """The images of a tree's theta elements, and the theta's size: 2d + 1
    for a d-globe, less 2k + 1 for each k-globe that two layers share.

    Each image maps to the images of its input and output faces, or to None
    for a point.  By globularity the faces of a leaf's j-boundaries, and of
    its region R when j is the region's dimension, are the (j-1)-boundaries
    of R.  Raises DcxError when two layers give one image different faces.
    """
    if tree[0] == "leaf":
        region = tree[1]
        d = P.masks_dim(region)
        images: dict[Masks, tuple] = {}
        faces = None
        for j in range(d):
            sides = tuple(P.boundary_masks(region, j, alpha) for alpha in (MINUS, PLUS))
            for bd in sides:
                if P.masks_dim(bd) != j:
                    raise DcxError("element-image map is not dimension-preserving")
                images[bd] = faces
            faces = sides
        images[region] = faces
        return images, 2 * d + 1
    k, children = tree[1], tree[2]
    images, size, left = {}, 2 * k + 1, 0
    for child in children:
        right = tree_region(child)
        if left and P.boundary_masks(left, k, PLUS) != P.boundary_masks(right, k, MINUS):
            raise BoundaryMismatchError(f"layers do not meet along their {k}-boundaries")
        more, n = _images(P, child)
        for m, faces in more.items():
            if images.setdefault(m, faces) != faces:
                raise DcxError("two layers give one image different faces")
        size += n - (2 * k + 1)  # the start value 2k + 1 cancels this for the first layer
        left |= right
    return images, size


def _trees(P: OgPoset, masks: Masks, levels: tuple[int, ...], min_k: int):
    memo = _memo(P, "sdtrees")
    key = (masks, levels, min_k)
    if key in memo:
        return memo[key]
    out = [("leaf", masks)]
    d = P.masks_dim(masks)
    for k in levels:
        if k < min_k or k >= d:
            continue
        for lay in _prelayerings_masks(P, masks, k):
            if len(lay) < 2:
                continue  # a node pastes two layers or more
            subtrees = [_trees(P, layer, levels, k + 1) for layer in lay]
            for children in itertools.product(*subtrees):
                out.append(("node", k, children, masks))
    memo[key] = out
    return out


class SdPoset:
    """The initial subdivision poset of a molecule, bottom included."""

    def __init__(self, molecule: Molecule, S: tuple[int, ...], elements, poset, bottom):
        self.molecule = molecule
        self.levels = S
        self.elements: list[Subdivision] = elements
        self.poset: FinPoset = poset
        self.bottom: int = bottom

    @property
    def size(self) -> int:
        return len(self.elements)

    def sd(self) -> FinPoset:
        """The subdivision poset proper: everything above the big cell."""
        keep = [i for i in range(self.size) if i != self.bottom]
        return self.poset.restrict(keep)

    def sd_elements(self) -> list[Subdivision]:
        return [s for i, s in enumerate(self.elements) if i != self.bottom]


def enumerate_sd(U: Molecule, S=None) -> SdPoset:
    """All subdivisions of U with levels in S, as a refinement poset.

    ``S`` defaults to every level below the dimension of U.  The enumeration
    is generic: frame-acyclicity is not assumed.  Trees are realised and
    deduplicated by their image sets (``Subdivision.key``), elements are
    listed in key order, and the big cell is the initial element.

    The order is built row by row, not by comparing all n² pairs.  When
    ``tree_leq(a, b)`` holds, every subtree region r of a has been checked to
    be exactly the union of b's images inside r: the root region is all of
    U, and every other region is a layer of its parent's node, which the
    comparison visits.  So the candidates above a are the elements that
    cover all of a's regions in that sense: an AND of one bitset per leaf
    region, since a node's region is the union of its leaves' regions.
    Rows are finished finest element first (most theta elements), and a's
    candidates are tried coarsest first.  A candidate already in a's row is
    skipped; otherwise ``tree_leq`` judges it, and a true answer brings in
    the candidate's row if that row is finished, by transitivity, or else
    only the candidate.  The visiting order changes the number of calls,
    never the rows.
    """
    P = U.poset
    if S is None:
        S = range(max(U.dim, 0))
    levels = tuple(sorted(set(int(s) for s in S)))
    if any(s < 0 for s in levels):
        raise PreconditionError("subdivision levels must be >= 0")
    seen: dict[tuple[Masks, ...], Subdivision] = {}
    for tree in _trees(P, P.full_masks(), levels, -1):
        s = realize(P, tree)
        seen.setdefault(s.key, s)
    elements = [seen[k] for k in sorted(seen)]
    fin = FinPoset(list(range(len(elements))), up_masks=_refinement_rows(elements))
    # _trees lists the root leaf first, so its key keeps the leaf tree
    bottom = next(i for i, s in enumerate(elements) if s.tree[0] == "leaf")
    sd = SdPoset(U, levels, elements, fin, bottom)
    if fin.bottom() != bottom:
        raise DcxError("big cell is not the minimum of the subdivision poset")
    return sd


# -- refinement order -----------------------------------------------------------


def tree_leq(a: Subdivision, b: Subdivision) -> bool:
    """True iff a factors through b (b refines a)."""
    if a.ambient is not b.ambient:
        raise PreconditionError("subdivisions of different molecules")
    if a.key == b.key:
        return True
    return _leq_rec(a.tree, b, b.theta.full_masks())


def _leq_rec(tree: Tree, b: Subdivision, sub: Masks) -> bool:
    if tree[0] == "leaf":
        return True
    _, k, children, _region = tree
    T = b.theta
    layers = [tree_region(c) for c in children]
    # per layer, the elements of sub whose image lies in it, and their images'
    # union; an element whose image lies in no layer fails at once
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
    for chunk in chunks:
        if mol_cert(T, chunk) is None:
            return False
    rest = chunks[-1]
    for left in reversed(chunks[:-1]):
        bd = T.boundary_masks(left, k, PLUS)
        if left & rest != bd or T.boundary_masks(rest, k, MINUS) != bd:
            return False
        rest |= left
    for child, chunk in zip(children, chunks):
        if not _leq_rec(child, b, chunk):
            return False
    return True


def _region_candidates(elements: list[Subdivision]) -> list[int]:
    """Per element a, the bitset of elements that may refine a.

    b is kept when, for every leaf region r of a, the images of b lying
    inside r have union exactly r.  Every b with ``tree_leq(a, b)`` is kept.
    A node's region is the union of its leaves' regions, so b then covers
    every subtree region of a in the same sense, and checking those too
    would reject nothing more.

    For a kept b, the chunks that ``tree_leq`` cuts at a node of a cover
    the node's chunk: every image of b inside the node's region R lies in
    one of its layers.  First, each leaf region Q of b lies in a leaf
    region of a.  Two leaf regions of one tree meet in dimension at most
    the level of the node that parts them, and a layer of a k-split has
    dimension above k, so an element e of Q of Q's dimension lies in no
    image but Q.  Some leaf region r of a holds e; r is the union of b's
    images inside it, so Q lies in r.  Every image of b is a leaf region or
    a boundary of one, so it lies in a leaf region r of a.  If r is below
    the node, the image lies in one of its layers.  Otherwise the node
    where the paths to r and to R part has a lower level j, and the image
    lies in a j-boundary of the layer that holds R.  Splits above level j
    keep j-boundaries, so that is a j-boundary of R and of each of R's
    layers.  The other checks, that each chunk is a molecule of b's theta
    and meets the next along its k-boundary, have no proof here, so
    ``tree_leq`` still judges every kept b.
    """
    needs = [{t[1] for t in _subtrees(a.tree) if t[0] == "leaf"} for a in elements]
    covered = {}
    for r in set().union(*needs):
        row = 0
        for j, b in enumerate(elements):
            union = 0
            for img in b.key:
                if img & ~r == 0:
                    union |= img
            if union == r:
                row |= 1 << j
        covered[r] = row
    out = []
    for need in needs:
        row = (1 << len(elements)) - 1
        for r in need:
            row &= covered[r]
        out.append(row)
    return out


def _refinement_rows(elements: list[Subdivision]) -> list[int]:
    """Up-set bitset rows of the refinement order, see ``enumerate_sd``."""
    size = [s.theta.size() for s in elements]
    candidates = _region_candidates(elements)
    rows = [0] * len(elements)  # 0 until the row is finished
    for i in sorted(range(len(elements)), key=lambda i: -size[i]):
        row = 1 << i
        for j in sorted(_bits(candidates[i]), key=size.__getitem__):
            if not row >> j & 1 and tree_leq(elements[i], elements[j]):
                row |= rows[j] | 1 << j
        rows[i] = row
    return rows


def restrict_levels(x: Subdivision, keep) -> Subdivision:
    """Prune node levels outside ``keep`` (an initial segment of x's levels).

    Maximal subtrees rooted outside the kept levels collapse to the big
    cells of their regions.
    """
    keep_set = set(int(s) for s in keep)
    dropped = x.levels - keep_set
    if keep_set and dropped and min(dropped) < max(keep_set):
        raise PreconditionError("kept levels must form an initial segment")

    def prune(t: Tree) -> Tree:
        if t[0] == "leaf":
            return t
        _, k, children, region = t
        if k not in keep_set:
            return ("leaf", region)
        return ("node", k, tuple(prune(c) for c in children), region)

    return realize(x.ambient, prune(x.tree))


# -- contractibility evidence ----------------------------------------------------


def contractibility_report(U: Molecule, S=None) -> HomologyReport:
    """Homology and dismantlability evidence for the subdivision poset.

    Enumerates subdivisions at all levels (or the given ``S``), removes the
    big cell, and reports connectivity, reduced integral homology and
    dismantlability.  Atoms yield an empty poset.
    """
    sdp = enumerate_sd(U, S)
    return poset_homology(sdp.sd())


def sd_report_json(U: Molecule, S=None) -> dict:
    import hashlib

    report = contractibility_report(U, S)
    out = {
        "molecule": hashlib.sha256(U.key).hexdigest()[:16],
        "sd_size": report.size,
    }
    out.update(report.to_json())
    del out["size"]
    return out
