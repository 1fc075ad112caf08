"""Oriented graded posets.

An oriented graded poset is a finite graded poset in which the faces of
every element are partitioned into an input side and an output side.
Elements are addressed as ``(dim, index)`` pairs.  Closed subsets are
represented as one bitmask per dimension, which keeps the closure and
boundary calculus cheap enough for exhaustive searches.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .errors import (
    AmbiguityError,
    DanglingIndexError,
    EmptyFaceSetError,
    OverlapError,
)

El = tuple[int, int]
Masks = tuple[int, ...]

MINUS = "-"
PLUS = "+"
SIDES = (MINUS, PLUS)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class OgPoset:
    """A validated oriented graded poset.

    ``faces[d][i]`` holds the pair ``(minus, plus)`` of sorted index tuples
    into dimension ``d - 1``; dimension 0 carries no face data.  Instances
    are immutable after construction and cache derived tables (cofaces,
    single-element closures, canonical form, memoised searches).
    """

    __slots__ = (
        "counts",
        "faces",
        "regular",
        "dn_minus",
        "dn_plus",
        "dn_all",
        "up_minus",
        "up_plus",
        "up_all",
        "cl_el",
        "_canon",
        "_memo",
    )

    def __init__(self, counts, faces, *, regular=False, _checked=False):
        counts = tuple(counts)
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        self.counts = counts
        self.faces = tuple(
            tuple((tuple(sorted(mn)), tuple(sorted(pl))) for mn, pl in faces[d])
            if 1 <= d < len(counts)
            else ()
            for d in range(len(counts))
        )
        self.regular = regular
        if not _checked:
            self._validate()
        self._build_tables()
        self._canon = None
        self._memo = {}

    # -- validation ----------------------------------------------------

    def _validate(self):
        for d in range(1, len(self.counts)):
            below = self.counts[d - 1]
            if len(self.faces[d]) != self.counts[d]:
                raise DanglingIndexError(f"face table at dimension {d} has wrong length")
            for i, (mn, pl) in enumerate(self.faces[d]):
                for j in mn + pl:
                    if not (0 <= j < below):
                        raise DanglingIndexError(
                            f"element ({d},{i}) references ({d - 1},{j}) which does not exist"
                        )
                if set(mn) & set(pl):
                    raise OverlapError(
                        f"element ({d},{i}) has overlapping input and output faces"
                    )
                if len(set(mn)) != len(mn) or len(set(pl)) != len(pl):
                    raise DanglingIndexError(f"element ({d},{i}) repeats a face index")
                if self.regular and (not mn or not pl):
                    raise EmptyFaceSetError(
                        f"element ({d},{i}) has an empty face side"
                    )

    def _build_tables(self):
        nd = len(self.counts)
        self.dn_minus = [[0] * c for c in self.counts]
        self.dn_plus = [[0] * c for c in self.counts]
        self.dn_all = [[0] * c for c in self.counts]
        self.up_minus = [[0] * c for c in self.counts]
        self.up_plus = [[0] * c for c in self.counts]
        self.up_all = [[0] * c for c in self.counts]
        for d in range(1, nd):
            for i, (mn, pl) in enumerate(self.faces[d]):
                m = 0
                for j in mn:
                    m |= 1 << j
                    self.up_minus[d - 1][j] |= 1 << i
                p = 0
                for j in pl:
                    p |= 1 << j
                    self.up_plus[d - 1][j] |= 1 << i
                self.dn_minus[d][i] = m
                self.dn_plus[d][i] = p
                self.dn_all[d][i] = m | p
        for d in range(nd - 1):
            for i in range(self.counts[d]):
                self.up_all[d][i] = self.up_minus[d][i] | self.up_plus[d][i]
        # downward closure of each single element
        self.cl_el = [[None] * c for c in self.counts]
        for d in range(nd):
            for i in range(self.counts[d]):
                masks = [0] * nd
                masks[d] = 1 << i
                for e in range(d, 0, -1):
                    acc = 0
                    for j in _bits(masks[e]):
                        acc |= self.dn_all[e][j]
                    masks[e - 1] = acc
                self.cl_el[d][i] = tuple(masks)

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.counts) - 1

    def size(self) -> int:
        return sum(self.counts)

    def elements(self) -> Iterator[El]:
        for d, c in enumerate(self.counts):
            for i in range(c):
                yield (d, i)

    def has_element(self, el: El) -> bool:
        d, i = el
        return 0 <= d < len(self.counts) and 0 <= i < self.counts[d]

    def face_sets(self, el: El) -> tuple[tuple[int, ...], tuple[int, ...]]:
        d, i = el
        if d == 0:
            return ((), ())
        return self.faces[d][i]

    def empty_masks(self) -> Masks:
        return (0,) * len(self.counts)

    def full_masks(self) -> Masks:
        return tuple((1 << c) - 1 for c in self.counts)

    def el_masks(self, els: Iterable[El]) -> Masks:
        out = [0] * len(self.counts)
        for d, i in els:
            out[d] |= 1 << i
        return tuple(out)

    def masks_els(self, masks: Masks) -> list[El]:
        return [(d, i) for d in range(len(masks)) for i in _bits(masks[d])]

    # -- closure / boundary calculus --------------------------------------

    def closure_masks(self, masks: Masks) -> Masks:
        out = list(masks) + [0] * (len(self.counts) - len(masks))
        for d in range(len(self.counts) - 1, 0, -1):
            acc = 0
            for i in _bits(out[d]):
                acc |= self.dn_all[d][i]
            out[d - 1] |= acc
        return tuple(out)

    def is_closed_masks(self, masks: Masks) -> bool:
        for d in range(1, len(self.counts)):
            for i in _bits(masks[d]):
                if self.dn_all[d][i] & ~masks[d - 1]:
                    return False
        return True

    def maximal_masks(self, masks: Masks) -> Masks:
        """Elements of the subset with no coface inside the subset."""
        out = []
        for d in range(len(self.counts)):
            above = masks[d + 1] if d + 1 < len(masks) else 0
            m = 0
            for i in _bits(masks[d]):
                if not (self.up_all[d][i] & above):
                    m |= 1 << i
            out.append(m)
        return tuple(out)

    def delta_masks(self, masks: Masks, k: int, alpha: str) -> int:
        """Dimension-k elements of the subset with no (-alpha)-coface inside it.

        Returns a bitmask over dimension k.
        """
        if k < 0 or k >= len(self.counts) or not masks[k]:
            return 0
        up = self.up_plus if alpha == MINUS else self.up_minus
        above = masks[k + 1] if k + 1 < len(masks) else 0
        out = 0
        for i in _bits(masks[k]):
            if not (up[k][i] & above):
                out |= 1 << i
        return out

    def boundary_masks(self, masks: Masks, k: int, alpha: str) -> Masks:
        """The alpha-side k-boundary of a closed subset, as a closed subset."""
        if k < 0:
            return self.empty_masks()
        seed = [0] * len(self.counts)
        if k < len(self.counts):
            seed[k] = self.delta_masks(masks, k, alpha)
        mx = self.maximal_masks(masks)
        for d in range(min(k, len(self.counts))):
            seed[d] |= mx[d]
        return self.closure_masks(tuple(seed))

    def flow_masks(self, els: list[El], k: int) -> list[int]:
        """The maximal k-flow rule on a list of elements.

        Bit j of entry i is set iff the output k-frame of ``els[i]`` (the
        dimension-k part of its output k-boundary) meets the input k-frame
        of ``els[j]``.  Every entry is 0 for k < 0.
        """
        cl = [self.cl_el[d][i] for d, i in els]
        plus = [self.delta_masks(c, k, PLUS) for c in cl]
        minus = [self.delta_masks(c, k, MINUS) for c in cl]
        return [
            sum(1 << j for j, m in enumerate(minus) if p & m) for p in plus
        ]

    def masks_dim(self, masks: Masks) -> int:
        for d in range(len(masks) - 1, -1, -1):
            if masks[d]:
                return d
        return -1

    def flat_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for c in self.counts:
            offs.append(offs[-1] + c)
        return tuple(offs)

    def flatten_masks(self, masks: Masks) -> int:
        out = 0
        shift = 0
        for d, c in enumerate(self.counts):
            if d < len(masks) and masks[d]:
                out |= masks[d] << shift
            shift += c
        return out

    def unflatten_masks(self, flat: int) -> Masks:
        out = []
        shift = 0
        for c in self.counts:
            out.append((flat >> shift) & ((1 << c) - 1))
            shift += c
        return tuple(out)

    def masks_size(self, masks: Masks) -> int:
        return sum(_popcount(m) for m in masks)

    def connected_masks(self, masks: Masks) -> bool:
        """Connectivity of the subset in the undirected Hasse graph."""
        els = self.masks_els(masks)
        if not els:
            return True
        seen = {els[0]}
        stack = [els[0]]
        inset = set(els)
        while stack:
            d, i = stack.pop()
            nbrs = []
            if d > 0:
                nbrs.extend((d - 1, j) for j in _bits(self.dn_all[d][i]))
            if d + 1 < len(self.counts):
                nbrs.extend((d + 1, j) for j in _bits(self.up_all[d][i]))
            for nb in nbrs:
                if nb in inset and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(inset)

    # -- extraction --------------------------------------------------------

    def extract(self, masks: Masks, *, regular=None):
        """Restrict to a closed subset as a standalone poset.

        Returns ``(Q, to_ambient)`` where ``to_ambient`` maps elements of
        ``Q`` back to elements of this poset.  Relative index order is
        preserved within each dimension.
        """
        if regular is None:
            regular = self.regular
        nd = self.masks_dim(masks) + 1
        newidx = [dict() for _ in range(nd)]
        counts = []
        to_ambient = {}
        for d in range(nd):
            ids = list(_bits(masks[d]))
            counts.append(len(ids))
            for new, old in enumerate(ids):
                newidx[d][old] = new
                to_ambient[(d, new)] = (d, old)
        faces = [[] for _ in range(nd)]
        for d in range(1, nd):
            for old in _bits(masks[d]):
                mn, pl = self.faces[d][old]
                faces[d].append(
                    (
                        tuple(newidx[d - 1][j] for j in mn),
                        tuple(newidx[d - 1][j] for j in pl),
                    )
                )
        Q = OgPoset(counts, faces, regular=regular, _checked=True)
        return Q, to_ambient

    # -- oriented Hasse diagram --------------------------------------------

    def hasse_edges(self) -> list[tuple[El, El]]:
        """Oriented Hasse edges: x -> y iff x is an input face of y or y is
        an output face of x."""
        edges = []
        for d in range(1, len(self.counts)):
            for i, (mn, pl) in enumerate(self.faces[d]):
                for j in mn:
                    edges.append(((d - 1, j), (d, i)))
                for j in pl:
                    edges.append(((d, i), (d - 1, j)))
        return edges

    # -- canonical form ------------------------------------------------------

    def canonical(self):
        """Canonical form of the poset.

        Returns ``(key, relabel)`` where ``key`` is a byte string equal for
        isomorphic posets and ``relabel`` maps each element to its canonical
        index within its dimension.
        """
        if self._canon is None:
            self._canon = _canonical_form(self)
        return self._canon

    def canonical_key(self) -> bytes:
        return self.canonical()[0]

    def __repr__(self):
        return f"OgPoset(counts={list(self.counts)})"


class Closed:
    """A downward-closed subset of an oriented graded poset."""

    __slots__ = ("poset", "masks")

    def __init__(self, poset: OgPoset, masks: Masks):
        self.poset = poset
        self.masks = tuple(masks)

    @classmethod
    def of(cls, poset: OgPoset, els: Iterable[El]) -> "Closed":
        return cls(poset, poset.closure_masks(poset.el_masks(els)))

    @classmethod
    def full(cls, poset: OgPoset) -> "Closed":
        return cls(poset, poset.full_masks())

    @property
    def dim(self) -> int:
        return self.poset.masks_dim(self.masks)

    def size(self) -> int:
        return self.poset.masks_size(self.masks)

    def elements(self) -> list[El]:
        return self.poset.masks_els(self.masks)

    def maximal(self) -> list[El]:
        return self.poset.masks_els(self.poset.maximal_masks(self.masks))

    def boundary(self, k: int, alpha: str) -> "Closed":
        return Closed(self.poset, self.poset.boundary_masks(self.masks, k, alpha))

    def delta(self, k: int, alpha: str) -> list[El]:
        return [(k, i) for i in _bits(self.poset.delta_masks(self.masks, k, alpha))]

    def extract(self):
        return self.poset.extract(self.masks)

    def __contains__(self, el: El) -> bool:
        d, i = el
        return d < len(self.masks) and bool(self.masks[d] >> i & 1)

    def __le__(self, other: "Closed") -> bool:
        return all(m & ~o == 0 for m, o in zip(self.masks, other.masks))

    def __eq__(self, other):
        return (
            isinstance(other, Closed)
            and self.poset is other.poset
            and self.masks == other.masks
        )

    def __hash__(self):
        return hash((id(self.poset), self.masks))

    def __repr__(self):
        return f"Closed({self.elements()})"


# -- public operations ------------------------------------------------------


def validate(raw, *, regular=False) -> OgPoset:
    """Validate raw face data.

    ``raw`` is a list indexed by dimension: entry 0 is an integer count (or a
    list with one entry per 0-element), and entry ``d >= 1`` is a list of
    ``(minus, plus)`` pairs (or ``{"-": [...], "+": [...]}`` mappings) of
    indices into dimension ``d - 1``.
    """
    if not raw:
        return OgPoset((), [], regular=regular)
    head = raw[0]
    counts = [head if isinstance(head, int) else len(head)]
    faces = [[]]
    for d in range(1, len(raw)):
        level = []
        for entry in raw[d]:
            if isinstance(entry, dict):
                level.append((tuple(entry.get("-", ())), tuple(entry.get("+", ()))))
            else:
                mn, pl = entry
                level.append((tuple(mn), tuple(pl)))
        counts.append(len(level))
        faces.append(level)
    return OgPoset(counts, faces, regular=regular)


def closure(P: OgPoset, els: Iterable[El]) -> Closed:
    """Smallest downward-closed subset containing ``els``."""
    return Closed.of(P, els)


def delta(A: Closed, k: int, alpha: str) -> list[El]:
    return A.delta(k, alpha)


def boundary(A: Closed, k: int, alpha: str) -> Closed:
    return A.boundary(k, alpha)


def oriented_hasse(P: OgPoset) -> list[tuple[El, El]]:
    return P.hasse_edges()


def is_hasse_acyclic(P: OgPoset) -> bool:
    """True iff the oriented Hasse diagram has no directed cycle."""
    return hasse_cycle(P) is None


def hasse_cycle(P: OgPoset) -> Optional[list[El]]:
    """A directed cycle of the oriented Hasse diagram, or None."""
    return find_cycle(P.elements(), P.hasse_edges())


def find_cycle(vertices: Iterable, edges: Iterable[tuple]) -> Optional[list]:
    """A directed cycle of a graph, as a vertex path ending where it began.

    Depth-first search from each unvisited vertex in the order given,
    following edges in the order given; None when the graph is acyclic.
    """
    adj: dict = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    state = {v: WHITE for v in adj}
    for root in adj:
        if state[root] != WHITE:
            continue
        stack = [(root, iter(adj[root]))]
        state[root] = GREY
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if state[nxt] == WHITE:
                    state[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = BLACK
                path.pop()
                stack.pop()
    return None


# -- isomorphism search -------------------------------------------------------


class OgIso:
    """An orientation-preserving isomorphism between two posets."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: OgPoset, target: OgPoset, mapping: dict[El, El]):
        self.source = source
        self.target = target
        self.mapping = mapping

    def __getitem__(self, el: El) -> El:
        return self.mapping[el]

    def inverse(self) -> "OgIso":
        return OgIso(self.target, self.source, {v: k for k, v in self.mapping.items()})

    def verify(self) -> bool:
        P, Q = self.source, self.target
        if P.counts != Q.counts or len(self.mapping) != P.size():
            return False
        if len(set(self.mapping.values())) != len(self.mapping):
            return False
        for (d, i), (dq, iq) in self.mapping.items():
            if d != dq:
                return False
            if d == 0:
                continue
            mn, pl = P.faces[d][i]
            qmn, qpl = Q.faces[d][iq]
            if {self.mapping[(d - 1, j)][1] for j in mn} != set(qmn):
                return False
            if {self.mapping[(d - 1, j)][1] for j in pl} != set(qpl):
                return False
        return True

    def __repr__(self):
        return f"OgIso({self.mapping})"


def _initial_colors(P: OgPoset, el: El) -> tuple:
    d, i = el
    return (
        d,
        _popcount(P.dn_minus[d][i]),
        _popcount(P.dn_plus[d][i]),
        _popcount(P.up_minus[d][i]),
        _popcount(P.up_plus[d][i]),
    )


def _refine(posets: list[OgPoset], colors: dict) -> dict:
    """Stable colour refinement; colour ids are comparable across posets."""
    while True:
        sigs = {}
        for p, P in enumerate(posets):
            for d in range(len(P.counts)):
                for i in range(P.counts[d]):
                    key = (p, d, i)
                    mn = tuple(sorted(colors[(p, d - 1, j)] for j in _bits(P.dn_minus[d][i]))) if d else ()
                    pl = tuple(sorted(colors[(p, d - 1, j)] for j in _bits(P.dn_plus[d][i]))) if d else ()
                    um = tuple(sorted(colors[(p, d + 1, j)] for j in _bits(P.up_minus[d][i]))) if d + 1 < len(P.counts) else ()
                    up = tuple(sorted(colors[(p, d + 1, j)] for j in _bits(P.up_plus[d][i]))) if d + 1 < len(P.counts) else ()
                    sigs[key] = (colors[key], mn, pl, um, up)
        ranking = {sig: n for n, sig in enumerate(sorted(set(sigs.values())))}
        new = {key: ranking[sig] for key, sig in sigs.items()}
        if len(set(new.values())) == len(set(colors.values())):
            return new
        colors = new


def _start_colors(posets: list[OgPoset]) -> dict:
    raw = {}
    for p, P in enumerate(posets):
        for el in P.elements():
            raw[(p,) + el] = _initial_colors(P, el)
    ranking = {sig: n for n, sig in enumerate(sorted(set(raw.values())))}
    return {key: ranking[sig] for key, sig in raw.items()}


def _search(posets: list[OgPoset], leaf) -> None:
    """Individualisation-refinement over one poset or a pair.

    Colours are refined jointly.  A branch is pruned when some colour class
    holds different numbers of elements from each poset.  When every class
    holds exactly one element of each poset, ``leaf(colors)`` is called, and
    the search stops once it returns True.  Otherwise the search branches on
    the lowest class with more than one element per poset: for one poset each
    member is individualised in turn, for a pair the smallest member from
    the first poset is matched with each member from the second.  A stable,
    balanced, discrete colouring of a pair matches neighbour colours, so it
    is an isomorphism, and each isomorphism survives exactly one branch.
    """

    def rec(colors) -> bool:
        classes: dict[int, list[list[El]]] = {}
        for (p, d, i), c in colors.items():
            classes.setdefault(c, [[] for _ in posets])[p].append((d, i))
        if any(len(m) != len(ms[0]) for ms in classes.values() for m in ms):
            return False
        target = next((c for c in sorted(classes) if len(classes[c][0]) > 1), None)
        if target is None:
            return leaf(colors)
        first = sorted(classes[target][0])
        if len(posets) == 1:
            branches = [[(0,) + x] for x in first]
        else:
            branches = [[(0,) + first[0], (1,) + y] for y in sorted(classes[target][1])]
        for picked in branches:
            nxt = {key: 2 * c for key, c in colors.items()}
            for key in picked:
                nxt[key] -= 1
            if rec(_refine(posets, nxt)):
                return True
        return False

    rec(_refine(posets, _start_colors(posets)))


def isomorphisms(P: OgPoset, Q: OgPoset, limit: Optional[int] = None) -> list[OgIso]:
    """All orientation-preserving isomorphisms P -> Q (up to ``limit``)."""
    if P.counts != Q.counts:
        return []
    found: list[OgIso] = []

    def leaf(colors) -> bool:
        image = {c: (d, i) for (p, d, i), c in colors.items() if p == 1}
        found.append(
            OgIso(P, Q, {(d, i): image[c] for (p, d, i), c in colors.items() if p == 0})
        )
        return limit is not None and len(found) >= limit

    _search([P, Q], leaf)
    return found


def find_iso(P: OgPoset, Q: OgPoset) -> Optional[OgIso]:
    """An orientation-preserving isomorphism, or None."""
    isos = isomorphisms(P, Q, limit=1)
    return isos[0] if isos else None


def unique_iso(P: OgPoset, Q: OgPoset) -> Optional[OgIso]:
    """Like find_iso but raises AmbiguityError if the iso is not unique."""
    isos = isomorphisms(P, Q, limit=2)
    if not isos:
        return None
    if len(isos) > 1:
        raise AmbiguityError("two distinct isomorphisms found")
    return isos[0]


def labelled_key(P: OgPoset, labels: dict[El, object]) -> bytes:
    """Canonical key of a poset with one label per element.

    The canonical key of P, then the labels listed in canonical element
    order; equal for two labelled posets related by a label-preserving
    isomorphism when P is rigid.
    """
    key, relabel = P.canonical()
    order = sorted(labels, key=lambda el: (el[0], relabel[el]))
    return key + b"|" + repr(tuple(labels[el] for el in order)).encode()


def _canonical_form(P: OgPoset):
    if not P.counts:
        return (b"()", {})
    best: list = [None, None]

    def leaf(cols) -> bool:
        order: dict[El, int] = {}
        for d in range(len(P.counts)):
            row = sorted(range(P.counts[d]), key=lambda i: cols[(0, d, i)])
            for new, old in enumerate(row):
                order[(d, old)] = new
        cert = [tuple(P.counts)]
        for d in range(1, len(P.counts)):
            row = sorted(range(P.counts[d]), key=lambda i: order[(d, i)])
            cert.append(
                tuple(
                    (
                        tuple(sorted(order[(d - 1, j)] for j in P.faces[d][i][0])),
                        tuple(sorted(order[(d - 1, j)] for j in P.faces[d][i][1])),
                    )
                    for i in row
                )
            )
        key = repr(tuple(cert)).encode()
        if best[0] is None or key < best[0]:
            best[0] = key
            best[1] = order
        return False

    _search([P], leaf)
    return (best[0], best[1])
