"""Subdivision posets of molecules.

An element of the initial subdivision poset of U at levels S is a
non-degenerate active functor from a theta with pasting levels in S onto
U.  We encode candidates as trees: a Leaf stands for the big cell of its
region (the unique active map from a globe), and a Node at level k pastes
the subdivisions of the layers of a non-trivial k-pre-layering of its
region, with all deeper node levels above k.

A subdivision is non-degenerate, so its images alone determine its theta.
``realize`` collects the images, one per theta element, each with the
images of its faces: the image's boundaries one dimension down, which the
leaf that made the image has already computed.  It raises
BoundaryMismatchError when consecutive layers do not meet along their
k-boundaries, DcxError when a leaf's boundary has the wrong dimension, when
images are shared or when two layers give one image different faces, and
OverlapError when an image's two faces are equal.  These are all the ways
the theta can fail, so it is built only on first read of ``theta``.

So a subdivision is keyed by its image set, listed in theta position
order, and no isomorphism search is needed: thetas are molecules, hence
rigid, so two realisations have equal keys exactly when their labelled
thetas are isomorphic.  Each subdivision has exactly one tree (see
``_trees``), so no two realised trees share a key.

b refines a when a factors through b: each node of a cuts b's theta into
chunks, one per layer, that are molecules meeting along the node's
k-boundaries.  By the proof at ``_region_candidates`` this holds iff b's
images cover each leaf region of a, so ``enumerate_sd`` reads the order off
one bitset per leaf region, and ``tree_leq`` runs that test on one pair.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator

from .errors import BoundaryMismatchError, DcxError, OverlapError, PreconditionError
from .flow import _prelayerings_masks
from .homology import HomologyReport, poset_homology
from .molecule import Molecule
from .ogposet import MINUS, PLUS, El, Masks, OgPoset, _bits, _memoised
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
    """A realised subdivision: a tree over U and the image subsets of U.

    ``key`` is the image of each theta element, indexed by its theta
    position; it identifies the subdivision, and elements are listed in key
    order.  The theta poset is built from the images on first read of
    ``theta``; ``realize`` has already made every check that can fail.
    """

    __slots__ = ("ambient", "tree", "key", "_theta")

    def __init__(self, ambient: OgPoset, tree: Tree, key: tuple[Masks, ...]):
        self.ambient = ambient
        self.tree = tree
        self.key = key
        self._theta = None

    @property
    def theta(self) -> OgPoset:
        """The theta: the element on image m has the elements on m's input
        and output boundaries one dimension down as its faces."""
        if self._theta is None:
            P = self.ambient
            images, _ = _images(P, self.tree)
            counts = [0] * (P.masks_dim(self.key[-1]) + 1)
            index: dict[Masks, int] = {}
            faces: list[list] = [[] for _ in counts]
            for m in self.key:
                d = P.masks_dim(m)
                index[m] = counts[d]
                counts[d] += 1
                if d:
                    lo, hi = images[m]
                    faces[d].append(((index[lo],), (index[hi],)))
            self._theta = OgPoset(counts, faces)
        return self._theta

    @property
    def counts(self) -> tuple[int, ...]:
        """The number of theta elements in each dimension, read off the key."""
        dims = [self.ambient.masks_dim(m) for m in self.key]
        return tuple(dims.count(d) for d in range(dims[-1] + 1))

    @property
    def img(self) -> dict[El, Masks]:
        """The image of each theta element."""
        return dict(zip(self.theta.elements(), self.key))

    @property
    def levels(self) -> set[int]:
        return {t[1] for t in _subtrees(self.tree) if t[0] == "node"}

    def is_big_cell(self) -> bool:
        # a node pastes two or more layers of dimension above its level k,
        # so its theta has two or more maximal elements
        return self.tree[0] == "leaf"

    def __repr__(self):
        return f"Subdivision(theta_counts={list(self.counts)})"


def realize(P: OgPoset, tree: Tree) -> Subdivision:
    """Realise a subdivision tree over the ambient poset P.

    A leaf images its globe on its region R and the boundaries of R, a node
    the union of its layers' images.  The key lists the images in theta
    position order, by increasing image in each dimension.  The images are
    checked here and the theta is built on first read of
    ``Subdivision.theta``.  Raises BoundaryMismatchError when consecutive
    layers of a node do not meet along their k-boundaries, DcxError when a
    leaf boundary has the wrong dimension, images are shared, or two layers
    give one image different faces, and OverlapError when an image's input
    and output faces are equal.
    """
    images, size = _images(P, tree)
    if len(images) != size:
        raise DcxError("element-image map is not injective")
    # positions run in dimension order, so a mask of higher dimension is larger
    key = tuple(sorted(images))
    if any(faces and faces[0] == faces[1] for faces in images.values()):
        raise OverlapError("an image has equal input and output faces")
    return Subdivision(P, tree, key)


def _images(P: OgPoset, tree: Tree) -> tuple[dict[Masks, tuple], int]:
    """The images of a tree's theta elements, and the theta's size: 2d + 1
    for a d-globe, less 2k + 1 for each k-globe that two layers share.

    Each image maps to the images of its input and output faces, or to None
    for a point.  By globularity the faces of a leaf's j-boundaries, and of
    its region R when j is the region's dimension, are the (j-1)-boundaries
    of R.  A leaf's images are computed once per poset (:func:`_leaf_images`),
    and callers share them; so is the test whether two consecutive layers
    meet (:func:`_meet`).  Raises DcxError when two layers give one image
    different faces.
    """
    if tree[0] == "leaf":
        return _leaf_images(P, tree[1])
    k, children = tree[1], tree[2]
    images, size, left = {}, 2 * k + 1, 0
    for child in children:
        right = tree_region(child)
        if left and not _meet(P, left, right, k):
            raise BoundaryMismatchError(f"layers do not meet along their {k}-boundaries")
        more, n = _images(P, child)
        for m, faces in more.items():
            if images.setdefault(m, faces) != faces:
                raise DcxError("two layers give one image different faces")
        size += n - (2 * k + 1)  # the start value 2k + 1 cancels this for the first layer
        left |= right
    return images, size


@_memoised("sdleaf")
def _leaf_images(P: OgPoset, region: Masks) -> tuple[dict[Masks, tuple], int]:
    """The images of the globe that a leaf maps onto ``region``, and its size."""
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


@_memoised("sdmeet")
def _meet(P: OgPoset, left: Masks, right: Masks, k: int) -> bool:
    """Whether the layers ``left`` and ``right`` meet along their k-boundaries."""
    return P.boundary_masks(left, k, PLUS) == P.boundary_masks(right, k, MINUS)


@_memoised("sdtrees")
def _trees(P: OgPoset, masks: Masks, levels: tuple[int, ...], min_k: int):
    """The subdivision trees of a region, node levels in ``levels`` and at
    least ``min_k``; a node's children start one level above it.

    Each subdivision has one tree: two trees over one region with one image
    set, so one theta T, are equal, by induction on the region.  A tree is
    a leaf iff its region is an image.  A node at level k has children with
    levels and leaves above k, so each child's theta has two j-elements for
    each j <= k, and T has two for each j < k and one k-element more than
    it has layers: k is the least dimension where T has three elements or
    more.  The k-elements form a chain, each the output k-boundary of the
    elements above k whose input k-boundary is the one before, and the
    images of those elements make up a layer.  So both trees have the same
    k and layers, and the same image set over each layer.
    """
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
    is generic: frame-acyclicity is not assumed.  Each tree of ``_trees`` is
    its own subdivision, realised and keyed by its image set
    (``Subdivision.key``).  Elements are listed in key order, the big cell
    is the initial element, and each element's up-set is its row of
    ``_region_candidates``, which is the refinement order itself.  The big
    cell is the minimum: its only leaf region is U, which every
    subdivision's images cover, so its row is full.
    """
    P = U.poset
    if S is None:
        S = range(max(U.dim, 0))
    levels = tuple(sorted(set(int(s) for s in S)))
    if any(s < 0 for s in levels):
        raise PreconditionError("subdivision levels must be >= 0")
    trees = _trees(P, P.full_masks(), levels, -1)
    elements = sorted((realize(P, tree) for tree in trees), key=lambda s: s.key)
    fin = FinPoset(list(range(len(elements))), up_masks=_region_candidates(elements))
    bottom = next(i for i, s in enumerate(elements) if s.tree[0] == "leaf")
    return SdPoset(U, levels, elements, fin, bottom)


# -- refinement order -----------------------------------------------------------


def tree_leq(a: Subdivision, b: Subdivision) -> bool:
    """True iff a factors through b (b refines a): b covers each leaf
    region of a, read off a's row of ``_region_candidates([a, b])``, where
    b is bit 1."""
    if a.ambient is not b.ambient:
        raise PreconditionError("subdivisions of different molecules")
    return bool(_region_candidates([a, b])[0] & 2)


def _leaf_regions(tree: Tree) -> set[Masks]:
    return {t[1] for t in _subtrees(tree) if t[0] == "leaf"}


def _region_candidates(elements: list[Subdivision]) -> list[int]:
    """Per element a, the bitset of the elements b that refine a.

    b is kept when it covers each leaf region r of a: r is the union of b's
    images inside r.  As r and the images are closed, that holds iff each
    maximal element e of r lies in such an image, so a's row is an AND over
    r and e of the OR of the element bitsets of the images inside r that
    contain e.

    Proof that the kept b are exactly the refinements.  Write C(X) for the
    elements of b's theta whose images lie in a closed X; b covers X when X
    is their images' union.  Chains on a closed set have its elements as
    basis and ∂x = (output faces) - (input faces); [V] sums V's elements
    of its dimension.  Standard facts: globularity; the boundaries of a
    pasting V #k W; the first i layers of an iterated k-pasting meet the
    rest in ∂+k of layer i; molecules are acyclic (they realise as balls);
    ∂[V] = [∂+V] - [∂-V] for a j-molecule V.  So parallel j-molecules (with
    equal (j-1)-boundaries) A ⊆ B are equal, as [B] - [A] is a cycle of B
    with nothing to bound it, and a j-dimensional closed set that holds
    distinct parallel j-molecules A, B is not acyclic, as nothing bounds
    [A] - [B].

    A refinement is kept: the comparison checks each layer of each node of
    a, down to the leaves, to be covered.  Conversely, let b be kept.
    (1) At each node of a, each image of b inside its region R lies in a
    layer.  A leaf region Q of b lies in a leaf region of a: two leaf
    regions of one tree meet in dimension at most the level of the node
    that parts them, and a layer of a k-split has dimension above k, so an
    element of Q of Q's dimension lies in no image but Q, so Q lies in the
    covered leaf region of a that holds it.  So each image of b lies in a
    leaf region r of a.  If r is below the node, the image lies in a layer.
    Otherwise the paths to r and to R part at a lower level j, and the
    image lies in a j-boundary of the layer that holds R, which splits
    above j keep: a j-boundary of R and of each of its layers.
    (2) So at a node of a at level k with layers L1, ..., Ln, the chunks
    are the C(Li), with unions Li, and the chunks after the i-th make up
    C(R>i), R>i = Li+1 ∪ ... ∪ Ln: an image inside R>i and some Ll, l <= i,
    lies in ∂-k R>i ⊆ Li+1.  a's regions are molecules (split sides are)
    and covered, so by (3) each C(Li) is a molecule and C(Li) ∩ C(R>i) =
    C(∂+k Li) = ∂+k C(Li) = ∂-k C(R>i), which is all the comparison asks.
    (3) Let s be a subtree of b with region M and theta Ts, and X ⊆ M a
    closed, acyclic union of s's images.  Then X and Cs(X) are molecules,
    s covers each ∂j X, and ∂j Cs(X) = Cs(∂j X).  By induction on s.  A
    leaf's images are M and its boundaries, nested, so X is M, one ∂j M,
    or the non-acyclic ∂-j M ∪ ∂+j M; Cs(X) is the closure of one element.
    At a node at level k with layers M1, ..., Mn, let xi = ∂+k Mi and x0 =
    ∂-k M.  Splits above k keep k-boundaries, so an image of the child si
    contains xi-1 ∪ xi or is xi-1, xi or a j-boundary of M with j < k.  If
    X has dimension at most k, it is one image, as it holds no two parallel
    ones.  Otherwise let I hold the i with an image of si above dimension k
    in X, p and q its ends, and Yi = X ∩ Mi: X holds xi-1 ∪ xi, so Yi is
    the union of si's images in X, and X's elements above dimension k lie
    in the layers of I.  If xl ⊆ X with l < p - 1, then [xl] - [xp-1] = ∂c
    on X, and ∂c lies on the layers from p on, which meet xl inside xp-1,
    so xl ⊆ xp-1, which distinct parallel molecules exclude; likewise for
    l > q.  If i < i' are adjacent in I with i' > i + 1, take ∂c = [xi] -
    [xi'-1] and c' the part of c on layers up to i: ∂c' = [xi] + w with w
    on xi ∩ xi'-1 is a cycle of the molecule xi, so 0, and xi ⊆ xi'-1.
    So X = Yp ∪ ... ∪ Yq, consecutive pieces meet in xi, and each Yi is
    acyclic by Mayer-Vietoris.  By induction Yi and Ci = Csi(Yi) are
    molecules.  The theta of si has two k-elements, on xi-1 and xi, the
    k-boundaries of all its elements above k, so ∂-k Ci and ∂+k Ci are
    their closures, and ∂-k Yi = xi-1, ∂+k Yi = xi.  So X = Yp #k ... #k Yq
    and Cs(X) = Cp #k ... #k Cq, and the boundary laws of pastings on both
    sides give the rest.
    """
    P = elements[0].ambient
    holders: dict[Masks, int] = {}  # image -> the elements that have it
    for j, s in enumerate(elements):
        for image in s.key:
            holders[image] = holders.get(image, 0) | 1 << j
    everything = (1 << len(elements)) - 1
    leaves = [_leaf_regions(a.tree) for a in elements]
    covered = {}
    for r in set().union(*leaves):
        inside = [(m, held) for m, held in holders.items() if m & ~r == 0]
        row = everything
        for e in _bits(P.maximal_masks(r)):
            row &= functools.reduce(operator.or_, (held for m, held in inside if m >> e & 1), 0)
        covered[r] = row
    return [functools.reduce(operator.and_, map(covered.get, need)) for need in leaves]


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
