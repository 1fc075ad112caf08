"""Subdivision posets of molecules.

An element of the initial subdivision poset of U at levels S is a
non-degenerate active functor from a theta with pasting levels in S onto
U.  We encode candidates as trees: a Leaf stands for the big cell of its
region (the unique active map from a globe), and a Node at level k pastes
the subdivisions of the layers of a non-trivial k-pre-layering of its
region, with all deeper node levels above k.  Each tree is realised as a
concrete theta-shaped poset with one image subset of U per element and
deduplicated by the canonical key of that pair, so distinct trees
realising the same subdivision collapse.

The refinement order is decided on realisations: a node of the coarser
side must cut the finer side into consecutive chunks over its layers, and
the comparison recurses into the chunks.
"""
from __future__ import annotations

from .errors import DcxError, PreconditionError
from .flow import _prelayerings_masks
from .homology import HomologyReport, poset_homology
from .molecule import Molecule, _memo, globe, mol_cert, paste_posets, push_labels
from .ogposet import MINUS, PLUS, Closed, El, Masks, OgPoset, labelled_key
from .posets import FinPoset

# trees: ("leaf", region, flat_region) | ("node", k, children, region, flat_region)
Tree = tuple


def tree_region(tree: Tree) -> Masks:
    return tree[1] if tree[0] == "leaf" else tree[3]


def tree_flat_region(tree: Tree) -> int:
    return tree[2] if tree[0] == "leaf" else tree[4]


def leaf(P: OgPoset, region: Masks) -> Tree:
    return ("leaf", region, P.flatten_masks(region))


def node(P: OgPoset, k: int, children: tuple, region: Masks) -> Tree:
    return ("node", k, children, region, P.flatten_masks(region))


class Subdivision:
    """A realised subdivision: a theta poset with image subsets of U."""

    __slots__ = (
        "ambient",
        "tree",
        "theta",
        "img",
        "key",
        "_flat",
        "_flat_by_bit",
        "_chunks",
        "_leq_true",
        "_leq_false",
    )

    def __init__(self, ambient: OgPoset, tree: Tree, theta: OgPoset, img: dict):
        self.ambient = ambient
        self.tree = tree
        self.theta = theta
        self.img = img
        self.key = labelled_key(theta, img)
        # flattened images indexed by theta bit position, for the order search
        offs = theta.flat_offsets()
        self._flat = [
            (offs[el[0]] + el[1], ambient.flatten_masks(masks))
            for el, masks in sorted(img.items())
        ]
        self._flat_by_bit = dict(self._flat)
        self._chunks: dict[int, int] = {}
        # refinement memo: (id(tree), flat_sub) -> tree, split by answer
        self._leq_true: dict = {}
        self._leq_false: dict = {}

    def chunk_inside(self, flat_layer: int) -> int:
        """Theta elements whose image lies in the given ambient subset."""
        cached = self._chunks.get(flat_layer)
        if cached is None:
            cached = 0
            for bit, flat_img in self._flat:
                if flat_img & ~flat_layer == 0:
                    cached |= 1 << bit
            self._chunks[flat_layer] = cached
        return cached

    @property
    def levels(self) -> set[int]:
        out = set()

        def walk(t):
            if t[0] == "node":
                out.add(t[1])
                for c in t[2]:
                    walk(c)

        walk(self.tree)
        return out

    def image_of(self, el: El) -> Closed:
        return Closed(self.ambient, self.img[el])

    def is_big_cell(self) -> bool:
        return self.theta.masks_size(
            self.theta.maximal_masks(self.theta.full_masks())
        ) == 1

    def __repr__(self):
        return f"Subdivision(theta_counts={list(self.theta.counts)})"


def _globe_poset(d: int) -> OgPoset:
    return globe(d).poset


def realize(P: OgPoset, tree: Tree) -> Subdivision:
    """Realise a subdivision tree over the ambient poset P."""
    theta, img = _realize_rec(P, tree)
    size = theta.size()
    if len(set(img.values())) != size:
        raise DcxError("element-image map is not injective")
    for el, masks in img.items():
        if P.masks_dim(masks) != el[0]:
            raise DcxError("element-image map is not dimension-preserving")
    return Subdivision(P, tree, theta, img)


def _realize_rec(P: OgPoset, tree: Tree):
    if tree[0] == "leaf":
        region = tree[1]
        d = P.masks_dim(region)
        g = _globe_poset(d)
        img: dict[El, Masks] = {(d, 0): region}
        for j in range(d):
            img[(j, 0)] = P.boundary_masks(region, j, MINUS)
            img[(j, 1)] = P.boundary_masks(region, j, PLUS)
        return g, img
    k, children = tree[1], tree[2]
    theta, img = _realize_rec(P, children[0])
    for child in children[1:]:
        th2, img2 = _realize_rec(P, child)
        theta, map_l, map_r = paste_posets(theta, th2, k)
        img = push_labels(map_l, img, map_r, img2)
        if img is None:
            raise DcxError("glued elements disagree on their images")
    return theta, img


def _nontrivial_prelayerings(P: OgPoset, masks: Masks, k: int):
    return [lay for lay in _prelayerings_masks(P, masks, k) if len(lay) >= 2]


def _trees(P: OgPoset, masks: Masks, levels: tuple[int, ...], min_k: int):
    memo = _memo(P, "sdtrees")
    key = (masks, levels, min_k)
    if key in memo:
        return memo[key]
    out = [leaf(P, masks)]
    d = P.masks_dim(masks)
    for k in levels:
        if k < min_k or k >= d:
            continue
        for lay in _nontrivial_prelayerings(P, masks, k):
            combos = [()]
            for layer in lay:
                nxt = []
                for prefix in combos:
                    for sub in _trees(P, layer, levels, k + 1):
                        nxt.append(prefix + (sub,))
                combos = nxt
            for children in combos:
                out.append(node(P, k, children, masks))
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
    deduplicated by canonical key, and the big cell is the initial element.
    """
    P = U.poset
    if S is None:
        S = range(max(U.dim, 0))
    levels = tuple(sorted(set(int(s) for s in S)))
    if any(s < 0 for s in levels):
        raise PreconditionError("subdivision levels must be >= 0")
    seen: dict[bytes, Subdivision] = {}
    for tree in _trees(P, P.full_masks(), levels, -1):
        s = realize(P, tree)
        seen.setdefault(s.key, s)
    elements = [seen[k] for k in sorted(seen)]
    fin = FinPoset.from_leq(
        list(range(len(elements))),
        lambda i, j: tree_leq(elements[i], elements[j]),
    )
    bottom_key = realize(P, leaf(P, P.full_masks())).key
    bottom = next(i for i, s in enumerate(elements) if s.key == bottom_key)
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
    return _leq_rec(a.ambient, a.tree, b, b.theta.flatten_masks(b.theta.full_masks()))


def _leq_rec(P: OgPoset, tree: Tree, b: Subdivision, flat_sub: int) -> bool:
    if tree[0] == "leaf":
        return True
    # The memo stores the tree itself, which keeps its id from being reused
    # by another tree, and a hit must be that very tree.
    memo_key = (id(tree), flat_sub)
    if b._leq_true.get(memo_key) is tree:
        return True
    if b._leq_false.get(memo_key) is tree:
        return False
    result = _leq_rec_compute(P, tree, b, flat_sub)
    (b._leq_true if result else b._leq_false)[memo_key] = tree
    return result


def _leq_rec_compute(P: OgPoset, tree: Tree, b: Subdivision, flat_sub: int) -> bool:
    _, k, children, _region, _flat = tree
    T = b.theta
    img_of = b._flat_by_bit
    flat_layers = [tree_flat_region(c) for c in children]
    chunks = [b.chunk_inside(fl) & flat_sub for fl in flat_layers]
    union = 0
    for c in chunks:
        union |= c
    if union != flat_sub:
        return False
    tuples = []
    for idx, chunk in enumerate(chunks):
        cover = 0
        rem = chunk
        while rem:
            low = rem & -rem
            cover |= img_of[low.bit_length() - 1]
            rem ^= low
        if cover != flat_layers[idx]:
            return False
        masks = T.unflatten_masks(chunk)
        if mol_cert(T, masks) is None:
            return False
        tuples.append(masks)
    rest = tuples[-1]
    for idx in range(len(tuples) - 2, -1, -1):
        left = tuples[idx]
        bd = T.boundary_masks(left, k, PLUS)
        inter = tuple(l & r for l, r in zip(left, rest))
        if inter != bd or T.boundary_masks(rest, k, MINUS) != bd:
            return False
        rest = tuple(l | r for l, r in zip(left, rest))
    for child, chunk in zip(children, chunks):
        if not _leq_rec(P, child, b, chunk):
            return False
    return True


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
        _, k, children, region, _flat = t
        if k not in keep_set:
            return leaf(x.ambient, region)
        return node(x.ambient, k, tuple(prune(c) for c in children), region)

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
