"""Oriented graded posets.

An oriented graded poset is a finite graded poset in which the faces of
every element are partitioned into an input side and an output side.
Elements are addressed as ``(dim, index)`` pairs.  Each element also has a
position, its rank in ``(dim, index)`` order, and a subset of the poset is
one int: bit p is set when the element at position p belongs to it.  The
closure and boundary calculus is then a few whole-int operations over
per-position tables of faces, cofaces and single-element closures, cheap
enough for exhaustive searches.  For each level k, a :class:`Level` table
holds per position the flow successors and what a split at k must put on
the same side; it is built on the first request at k.  Split candidates
and flow cycles read it.

Only this module knows the layout.  Other modules build subsets from
elements (:meth:`OgPoset.el_masks`), read them back
(:meth:`OgPoset.masks_els`) and cut them by dimension
(:meth:`OgPoset.upto`); they never compute a position themselves.

Constructors build and readers check.  :class:`OgPoset` builds from a face
table without checking it.  :func:`validate` is the one function that
checks a raw face table, before anything is built, and every file is read
through it.  The library's own constructions (pastings, atoms, globes,
suspensions, joins, extracts, the point and Sd thetas) build valid face
tables by construction, and each docstring says why.
"""
from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional

from .errors import (
    AmbiguityError,
    DanglingIndexError,
    DcxError,
    OverlapError,
    PreconditionError,
)

El = tuple[int, int]
Masks = int

MINUS = "-"
PLUS = "+"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(table: list[int], mask: int) -> int:
    """The union of ``table[p]`` over the positions p in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _offsets(counts) -> list[int]:
    """The position of the first element of each dimension, then the size."""
    out = [0]
    for c in counts:
        out.append(out[-1] + c)
    return out


def _memoised(name: str):
    """Keep the results of ``fn(P, *args)`` in the memo table ``name`` of P.

    A result is keyed by the single argument itself, or by the tuple of
    arguments when there are several; a call that raises stores nothing.
    Every memoised search of the package goes through here.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def memoised(P, *args):
            table = P._memo.setdefault(name, {})
            key = args[0] if len(args) == 1 else args
            if key not in table:
                table[key] = fn(P, *args)
            return table[key]

        return memoised

    return decorate


class OgPoset:
    """An oriented graded poset, built from a face table that is not checked.

    ``faces[d][i]`` holds the pair ``(minus, plus)`` of sorted index tuples
    into dimension ``d - 1``; dimension 0 carries no face data.  Indexed by
    position, ``dn_minus``/``dn_plus``/``dn_all`` hold an element's input,
    output and all faces, ``up_all`` its cofaces, and ``cl_el`` its
    closure, each as a subset; cofaces by side are read off the face
    tables.  The :class:`Level` table at k (:meth:`level`) is built on the
    first request at k and kept in the "frames" memo, so a poset and an
    extracted copy each build their own.  Instances are immutable and keep
    the canonical records of their closed subsets (:meth:`canon_record`),
    the whole poset's being its canonical form, in the "canon" memo, with
    the other memoised searches (see :func:`_memoised`).

    The face table must be valid: every index names an element one
    dimension down, and an element's two sides are disjoint and repeat no
    index.  Raw data is checked by :func:`validate`, which builds through
    here.
    """

    __slots__ = (
        "counts",
        "faces",
        "_offsets",
        "_upto",
        "_els",
        "dn_minus",
        "dn_plus",
        "dn_all",
        "up_all",
        "cl_el",
        "_memo",
    )

    def __init__(self, counts, faces):
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
        self._memo = {}
        offsets = _offsets(counts)
        self._offsets = tuple(offsets)
        # _upto[j]: the elements of dimension below j, for j = 0 .. len(counts) + 1;
        # the repeated last entry lets delta_masks read level k + 2 for every k <= dim,
        # and repeating the object, not a copy of its value, costs one slot per poset
        upto = tuple((1 << o) - 1 for o in offsets)
        self._upto = upto + upto[-1:]
        self._els = [(d, i) for d, c in enumerate(self.counts) for i in range(c)]
        n = offsets[-1]
        self.dn_minus = [0] * n
        self.dn_plus = [0] * n
        self.up_all = [0] * n
        for d in range(1, len(self.counts)):
            base = offsets[d - 1]
            for i, (mn, pl) in enumerate(self.faces[d]):
                p = offsets[d] + i
                for j in mn:
                    self.dn_minus[p] |= 1 << base + j
                    self.up_all[base + j] |= 1 << p
                for j in pl:
                    self.dn_plus[p] |= 1 << base + j
                    self.up_all[base + j] |= 1 << p
        self.dn_all = [self.dn_minus[p] | self.dn_plus[p] for p in range(n)]
        # faces precede their cofaces, so each closure is built from finished ones
        self.cl_el = []
        for p in range(n):
            self.cl_el.append((1 << p) | _union(self.cl_el, self.dn_all[p]))

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.counts) - 1

    def size(self) -> int:
        return len(self._els)

    def elements(self) -> Iterator[El]:
        return iter(self._els)

    def face_sets(self, el: El) -> tuple[tuple[int, ...], tuple[int, ...]]:
        d, i = el
        if d == 0:
            return ((), ())
        return self.faces[d][i]

    def pos(self, el: El) -> int:
        """The position of an element; DanglingIndexError for a non-element."""
        d, i = el
        if not (0 <= d < len(self.counts) and 0 <= i < self.counts[d]):
            raise DanglingIndexError(f"{tuple(el)} is not an element")
        return self._offsets[d] + i

    def upto(self, k: int) -> Masks:
        """The elements of dimension at most k."""
        table = self._upto
        if -1 <= k < len(table) - 1:
            return table[k + 1]
        return 0 if k < 0 else table[-1]

    def full_masks(self) -> Masks:
        return (1 << len(self._els)) - 1

    def el_masks(self, els: Iterable[El]) -> Masks:
        out = 0
        for el in els:
            out |= 1 << self.pos(el)
        return out

    def masks_els(self, masks: Masks) -> list[El]:
        return [self._els[p] for p in _bits(masks)]

    def masks_by_dim(self, masks: Masks) -> tuple[int, ...]:
        """The subset as one int per dimension, bit i standing for (d, i).

        Submolecule lists and pre-layerings are sorted by this view, lowest
        dimension most significant, and subdivision keys print it.
        """
        offs = self._offsets
        return tuple(masks >> offs[d] & (1 << c) - 1 for d, c in enumerate(self.counts))

    # -- closure / boundary calculus --------------------------------------

    def closure_masks(self, masks: Masks) -> Masks:
        """The smallest closed subset holding ``masks``, by one sweep from the
        highest position down: each element not yet covered adds its closure."""
        out = 0
        while masks:
            out |= self.cl_el[masks.bit_length() - 1]
            masks &= ~out
        return out

    def maximal_masks(self, masks: Masks) -> Masks:
        """Elements of the subset with no coface inside the subset."""
        # vertices, the lowest positions, have no faces: only the rest count
        n = self.counts[0] if self.counts else 0
        return masks & ~_union(self.dn_all, masks >> n << n)

    def delta_masks(self, masks: Masks, k: int, alpha: str) -> Masks:
        """Dimension-k elements of the subset with no (-alpha)-coface inside it."""
        if not 0 <= k < len(self.counts):
            return 0
        t = self._upto
        above = masks & t[k + 2] & ~t[k + 1]
        side = self.dn_plus if alpha == MINUS else self.dn_minus
        return masks & t[k + 1] & ~t[k] & ~_union(side, above)

    def boundary_masks(self, masks: Masks, k: int, alpha: str) -> Masks:
        """The alpha-side k-boundary of a closed subset, as a closed subset.

        It is generated by the alpha-side δ at k and by the maximal elements
        of dimension below k, which are those of the part of dimension at
        most k; nothing above k + 1 is read.
        """
        if k < 0:
            return 0
        t = self._upto
        j = min(k, len(self.counts))
        low = self.maximal_masks(masks & t[j + 1]) & t[j]
        return self.closure_masks(low | self.delta_masks(masks, k, alpha))

    @_memoised("frames")
    def level(self, k: int) -> "Level":
        """The :class:`Level` table at k, built on the first request at k."""
        return Level(self, k)

    def masks_dim(self, masks: Masks) -> int:
        return self._els[masks.bit_length() - 1][0] if masks else -1

    def connected_masks(self, masks: Masks) -> bool:
        """Connectivity of the subset in the undirected Hasse graph, by a
        breadth-first search that grows one layer of neighbours at a time."""
        seen = frontier = masks & -masks
        while frontier:
            nbrs = _union(self.dn_all, frontier) | _union(self.up_all, frontier)
            frontier = nbrs & masks & ~seen
            seen |= frontier
        return seen == masks

    # -- extraction --------------------------------------------------------

    def extract(self, masks: Masks):
        """Restrict to a closed subset as a standalone poset.

        Returns ``(Q, to_ambient)`` where ``to_ambient`` maps elements of
        ``Q`` back to elements of this poset.  Relative index order is
        preserved within each dimension.  A closed subset holds the faces of
        its elements and the renumbering is injective, so each element keeps
        its two sides, renumbered: the table is valid, and regular when this
        poset is.
        """
        els, counts, faces = self._restrict(masks)
        Q = OgPoset(counts, faces)
        return Q, dict(zip(Q._els, els))

    def _restrict(self, masks: Masks) -> tuple[list[El], list[int], list[list]]:
        """A closed subset read in place: its elements in position order,
        and its counts and face table with each dimension renumbered from 0
        in that order, as :meth:`extract` builds its poset from them."""
        els = self.masks_els(masks)
        counts = [0] * (self.masks_dim(masks) + 1)
        faces: list[list] = [[] for _ in counts]
        offs = self._offsets
        new: dict[int, int] = {}
        # positions run in (dim, index) order, so faces are renumbered first
        for d, i in els:
            new[offs[d] + i] = counts[d]
            counts[d] += 1
            if d:
                base = offs[d - 1]
                mn, pl = self.faces[d][i]
                faces[d].append(
                    (tuple([new[base + j] for j in mn]), tuple([new[base + j] for j in pl]))
                )
        return els, counts, faces

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
        index within its dimension; both are read off the record of the
        whole poset (:meth:`canon_record`).
        """
        key, els, _ = self.canon_record(self.full_masks())
        offs = self._offsets
        return key, {el: r - offs[el[0]] for r, el in enumerate(els)}

    def canonical_key(self) -> bytes:
        """The key of :meth:`canonical`, read off the record of the whole
        poset without building the relabel map."""
        return self.canon_record(self.full_masks())[0]

    @_memoised("canon")
    def canon_record(self, masks: Masks) -> tuple[bytes, tuple[El, ...], tuple]:
        """The canonical record of a closed subset, the one caller of
        :func:`_canonical_form`.

        Returns ``(key, els, autos)``: the canonical key of the subset, as
        :meth:`extract` would build it and :meth:`canonical` would key it;
        the subset's elements, as elements of this poset, listed in
        canonical order (by dimension, then canonical index); and generators
        of the subset's automorphism group, each a tuple sending every
        canonical index to its image, empty when the search found none, as
        on a molecule.  So ``els[i]`` of two subsets with equal keys are
        sent to the same element of the one canonical poset that both
        relabel onto (see :func:`record_iso`).  The face table is read in
        place (:meth:`_restrict`); no poset is built.  Kept in the "canon"
        memo, keyed by the subset.
        """
        els, counts, faces = self._restrict(masks)
        key, order, gens = _canonical_form(counts, faces)
        at = {p: i for i, p in enumerate(order)} if gens else {}
        autos = tuple([tuple([at[g[p]] for p in order]) for g in gens])
        return key, tuple([els[p] for p in order]), autos

    def __repr__(self):
        return f"OgPoset(counts={list(self.counts)})"


class Level:
    """The per-position tables of a poset at one level k.

    The table describes only the elements above level k, those of
    dimension greater than k, and none below level 0, which has no k-cells:
    every row at a position of dimension at most k is 0, every row is 0
    when k < 0 or k >= dim, and every row holds only elements above k.
    Its readers cut rows and bits to high elements, so they ask for
    nothing else.  For p above k, as subsets indexed by position:

    - ``succ[p]``: the elements whose input k-frame meets p's output
      k-frame, p's successors in the maximal k-flow rule.
    - ``need[p]``: p's flow predecessors, and the elements whose closures
      meet p's above dimension k.  A k-split with p on its left side has
      there every high element of ``need[p]`` (see
      :func:`dcx.molecule.splits_masks`).
    """

    __slots__ = ("succ", "need")

    def __init__(self, P: OgPoset, k: int):
        n = P.size()
        hi = P._offsets[k + 1] if 0 <= k < len(P.counts) else n
        low = [0] * hi
        cl_above = P.cl_el[hi:]
        # into[c]: the elements whose input k-frame holds the k-cell c
        into = [0] * n
        for q, cl in enumerate(cl_above, hi):
            for c in _bits(P.delta_masks(cl, k, MINUS)):
                into[c] |= 1 << q
        succ = [_union(into, P.delta_masks(cl, k, PLUS)) for cl in cl_above]
        # up[r]: the elements above k whose closures hold r, for r above k;
        # cofaces come first, from the top down
        above = P.full_masks() >> hi << hi
        up = [0] * n
        for r in reversed(range(hi, n)):
            up[r] = 1 << r | _union(up, P.up_all[r])
        need = low + [_union(up, cl & above) for cl in cl_above]
        for p, row in enumerate(succ, hi):
            for q in _bits(row):
                need[q] |= 1 << p
        self.succ = low + succ
        self.need = need


class Closed:
    """A downward-closed subset of an oriented graded poset."""

    __slots__ = ("poset", "masks")

    def __init__(self, poset: OgPoset, masks: Masks):
        self.poset = poset
        self.masks = masks

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
        return self.masks.bit_count()

    def elements(self) -> list[El]:
        return self.poset.masks_els(self.masks)

    def maximal(self) -> list[El]:
        return self.poset.masks_els(self.poset.maximal_masks(self.masks))

    def boundary(self, k: int, alpha: str) -> "Closed":
        return Closed(self.poset, self.poset.boundary_masks(self.masks, k, alpha))

    def delta(self, k: int, alpha: str) -> list[El]:
        return self.poset.masks_els(self.poset.delta_masks(self.masks, k, alpha))

    def extract(self):
        return self.poset.extract(self.masks)

    def __contains__(self, el: El) -> bool:
        try:
            return bool(self.masks >> self.poset.pos(el) & 1)
        except DanglingIndexError:
            return False

    def __le__(self, other: "Closed") -> bool:
        return self.masks & ~other.masks == 0

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


def validate(raw) -> OgPoset:
    """Check raw face data and build its poset.

    ``raw`` is a list indexed by dimension: entry 0 is an integer count (or a
    list with one entry per 0-element, each with two empty sides, such as
    ``{}``), and entry ``d >= 1`` is a list of ``(minus, plus)`` pairs (or
    ``{"-": [...], "+": [...]}`` mappings, with no other key) of indices
    into dimension ``d - 1``.  A count or index must be an ``int`` (not a
    ``bool``, which JSON ``true`` and ``false`` read as) and a count must
    not be negative.
    Data of any other shape raises ``DcxError`` naming the dimension, and
    the index of the element when there is one.
    An index that names no element one dimension down raises
    DanglingIndexError, and so does a side that repeats an index; sides
    that share an index raise OverlapError.  Every check is made on the raw
    table, before the poset is built: this is the one reader of face
    tables, and :class:`OgPoset` builds without checking.
    """
    if not isinstance(raw, (list, tuple)):
        raise DcxError(f"the face table {raw!r} is not a list")
    if not raw:
        return OgPoset((), [])
    head = raw[0]
    if isinstance(head, list):
        for i, entry in enumerate(head):
            if entry != {}:  # the form every writer uses, read without a call
                _face_entry(entry, 0, i, 0)
        head = len(head)
    elif type(head) is not int or head < 0:
        raise DcxError(f"the 0-element count {head!r} is not a non-negative integer")
    counts = [head]
    faces = [[]]
    for d in range(1, len(raw)):
        if not isinstance(raw[d], (list, tuple)):
            raise DcxError(f"dimension {d} of the face table is {raw[d]!r}, not a list")
        level = [_face_entry(entry, d, i, counts[-1]) for i, entry in enumerate(raw[d])]
        counts.append(len(level))
        faces.append(level)
    return OgPoset(counts, faces)


def _face_entry(entry, d: int, i: int, below: int) -> tuple[tuple, tuple]:
    """The checked ``(minus, plus)`` index tuples of the raw face entry of
    (d, i), whose indices name the ``below`` elements of dimension d - 1."""
    if isinstance(entry, dict):
        stray = [key for key in entry if key not in ("-", "+")]
        if stray:
            raise DcxError(f"element ({d},{i}) has face entry key {stray[0]!r}, not '-' or '+'")
        sides = (entry.get("-", ()), entry.get("+", ()))
    elif isinstance(entry, (list, tuple)) and len(entry) == 2:
        sides = entry
    else:
        sides = None
    if sides is None or not all(isinstance(side, (list, tuple)) for side in sides):
        raise DcxError(f"element ({d},{i}) has face entry {entry!r}, not two index lists")
    mn, pl = map(tuple, sides)
    if d == 0 and (mn or pl):
        raise DcxError(
            f"element (0,{i}) has face entry {entry!r}, but 0-elements have no faces"
        )
    for j in mn + pl:
        if type(j) is not int:
            raise DcxError(f"element ({d},{i}) has face index {j!r}, not an integer")
        if not 0 <= j < below:
            raise DanglingIndexError(
                f"element ({d},{i}) references ({d - 1},{j}) which does not exist"
            )
    if set(mn) & set(pl):
        raise OverlapError(f"element ({d},{i}) has overlapping input and output faces")
    if len(set(mn)) != len(mn) or len(set(pl)) != len(pl):
        raise DanglingIndexError(f"element ({d},{i}) repeats a face index")
    return mn, pl


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
    """A directed cycle of the oriented Hasse diagram, or None.

    An element's Hasse successors are its output faces and the cofaces
    having it as an input, in position order, as :meth:`OgPoset.hasse_edges`
    lists them for each element.
    """
    rows = list(P.dn_plus)
    for q, inputs in enumerate(P.dn_minus):
        for p in _bits(inputs):
            rows[p] |= 1 << q
    cycle = find_cycle(rows, P.full_masks())
    return None if cycle is None else [P._els[p] for p in cycle]


def find_cycle(rows: list[int], within: int) -> Optional[list[int]]:
    """A directed cycle of a graph on the positions of ``within``, as a path
    of positions ending where it began, or None when the graph is acyclic.

    The edges out of p are the bits of ``rows[p] & within``; a bit at p
    itself is a self-loop, a cycle of length one.  Depth-first search from
    each unvisited position in increasing order, following edges in
    increasing order.
    """
    done = 0
    for root in _bits(within):
        if done >> root & 1:
            continue
        path, on_path = [root], 1 << root
        todo = [rows[root] & within]
        while path:
            nxt = todo[-1] & ~done
            if not nxt:
                low = 1 << path.pop()
                on_path ^= low
                done |= low
                todo.pop()
                continue
            low = nxt & -nxt
            todo[-1] = nxt ^ low
            q = low.bit_length() - 1
            if on_path & low:
                return path[path.index(q):] + [q]
            path.append(q)
            on_path |= low
            todo.append(rows[q] & within)
    return None


def closed_rows(rows: list[int], within: int) -> list[int]:
    """The reflexive-transitive closure of the relation ``rows[p] & within``
    on the positions p of ``within``, as rows indexed by position; rows
    outside ``within`` are 0."""
    ps = list(_bits(within))
    out = [0] * len(rows)
    for p in ps:
        out[p] = rows[p] & within | 1 << p
    for q in ps:
        for p in ps:
            if out[p] >> q & 1:
                out[p] |= out[q]
    return out


def down_sets(need: list[int], within: int) -> Iterator[int]:
    """The down-sets of ``within``, in increasing bitmask order.

    ``need[p]`` holds the positions that must be in a set whenever p is, as
    rows of a reflexive-transitive closure (:func:`closed_rows`), indexed by
    position; only the rows of members of ``within`` are read.  Yields
    each subset S of ``within`` that holds ``need[p] & within`` for every p
    in S, the empty set first.  When ``within`` is convex (it holds whatever
    lies between two of its members), paths between members stay inside
    it, so these are exactly the down-sets of the induced relation.

    Positions are decided from the highest down, "out" first.  Deciding one
    adds its row (in) or column (out), so both sides stay closed and each
    undecided position can still go either way: every branch ends in a
    down-set, and the search is output-sensitive.
    """
    up = [0] * len(need)
    for p in _bits(within):
        for q in _bits(need[p] & within):
            up[q] |= 1 << p
    stack = [(0, 0)]
    while stack:
        inside, outside = stack.pop()
        todo = within & ~(inside | outside)
        if not todo:
            yield inside
            continue
        p = todo.bit_length() - 1
        stack.append((inside | need[p] & within, outside))
        stack.append((inside, outside | up[p]))


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

    def verify(self) -> bool:
        """True iff the mapping is a bijection from the elements of the
        source onto those of the target that keeps dimensions and both face
        sides; a key or value that is not an element gives False."""
        P, Q = self.source, self.target
        els = set(P._els)
        if P.counts != Q.counts or set(self.mapping) != els or set(self.mapping.values()) != els:
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


def _refine(nbrs: list[tuple[list[int], ...]], colors: list) -> list[int]:
    """Stable colour refinement of a flat colouring, as ranks 0, 1, ...

    ``nbrs[q]`` lists the positions of q's input faces, output faces, and
    cofaces having q as an input and as an output.  Each round ranks every
    element's signature, its colour and the sorted colours of each list,
    until a round makes no new colour.  Every signature starts with the old
    colour, so ranking them all is ranking within each class: a class of one
    element takes the next rank unsigned, and the members of a larger class
    take the class's first rank plus the rank of the rest of their
    signature among the class's distinct ones.

    The classes are kept as lists in colour order from one round to the
    next, and each round numbers them afresh before signing their members.
    """
    distinct = sorted(set(colors))
    rank = {c: r for r, c in enumerate(distinct)}
    classes: list[list[int]] = [[] for _ in distinct]
    for q, c in enumerate(colors):
        classes[rank[c]].append(q)
    colors = [0] * len(colors)
    get = colors.__getitem__
    while True:
        for r, members in enumerate(classes):
            for q in members:
                colors[q] = r
        split: list[list[int]] = []
        for members in classes:
            if len(members) == 1:
                split.append(members)
                continue
            parts: dict = {}
            for q in members:
                a, b, c, d = nbrs[q]
                sig = (
                    tuple(sorted(map(get, a))),
                    tuple(sorted(map(get, b))),
                    tuple(sorted(map(get, c))),
                    tuple(sorted(map(get, d))),
                )
                parts.setdefault(sig, []).append(q)
            if len(parts) == 1:
                split.append(members)
            else:
                split.extend(parts[sig] for sig in sorted(parts))
        if len(split) == len(classes):
            return colors
        classes = split


def record_iso(P: OgPoset, pm: Masks, Q: OgPoset, qm: Masks) -> Optional[dict[El, El]]:
    """An isomorphism of the closed subset ``pm`` of P onto the closed
    subset ``qm`` of Q, as a map of elements, or None when there is none.

    No isomorphism is searched for and no subset is extracted: the two
    canonical records (:meth:`OgPoset.canon_record`), each read in place and
    memoised on its poset, decide it.

    - Different keys: the keys are canonical, equal exactly for isomorphic
      posets, so the subsets are not isomorphic.
    - Equal keys: a key spells out the face data of the subset relabelled
      by its canonical relabelling, a bijection in each dimension.  Both
      subsets therefore relabel onto one canonical poset C, and the i-th
      elements of the two canonical orders go to the same element of C.
      Sending P's i-th element to Q's is the relabelling of P's subset onto
      C followed by the inverse relabelling of Q's, a composite of two
      orientation-preserving isomorphisms.
    - Every other isomorphism is this one composed with an automorphism of
      P's subset (:func:`isomorphisms`).  Molecules are rigid
      (Hadzihasanovic, *Combinatorics of higher-categorical diagrams*,
      2024): a molecule, such as a boundary of a molecule or the closure
      of one of its elements, has no automorphism but the identity.  On a
      molecule the map is therefore the one isomorphism, the one any
      isomorphism search would give.
    """
    key, p_els, _ = P.canon_record(pm)
    q_key, q_els, _ = Q.canon_record(qm)
    return dict(zip(p_els, q_els)) if key == q_key else None


def isomorphisms(P: OgPoset, Q: OgPoset, limit: Optional[int] = None) -> list[OgIso]:
    """All orientation-preserving isomorphisms P -> Q (up to ``limit``).

    Read off the records of the two posets: none when :func:`record_iso`
    finds none, and otherwise its map composed with each automorphism of P.
    That map comes first, then its composites with the automorphisms in the
    order a breadth-first walk from the identity along the generators of
    P's record reaches them, until ``limit`` are listed.  The generators
    permute canonical indices: they are those of the canonical search on
    positions conjugated by the canonical order, so the walk is that search's
    walk conjugated too, and lists the isomorphisms in the same order.
    ``limit`` 0 gives ``[]`` without a search; a negative one raises
    PreconditionError.
    """
    if limit is not None and limit < 0:
        raise PreconditionError(f"limit must be at least 0, got {limit}")
    if P.counts != Q.counts or limit == 0:
        return []
    base = record_iso(P, P.full_masks(), Q, Q.full_masks())
    if base is None:
        return []
    _, els, gens = P.canon_record(P.full_masks())
    autos = [tuple(range(len(els)))]
    seen = set(autos)
    for auto in autos:  # grows as the walk reaches new automorphisms
        if limit and len(autos) >= limit:
            break
        for g in gens:
            nxt = tuple([g[i] for i in auto])
            if nxt not in seen:
                seen.add(nxt)
                autos.append(nxt)
    return [OgIso(P, Q, {el: base[els[a[i]]] for i, el in enumerate(els)}) for a in autos[:limit]]


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


def labelled_key(P: OgPoset, masks: Masks, labels: dict[El, object]) -> bytes:
    """Canonical key of a closed subset of P with one label per element.

    The canonical key of the subset (:meth:`OgPoset.canon_record`), a
    ``|``, which no canonical key holds, and the labels of the subset's
    elements listed in canonical order.  So two labelled keys are equal
    exactly when the canonical keys are and the labels agree at each
    canonical index, that is, when the map of :func:`record_iso` carries
    the labels of one subset onto those of the other; for rigid subsets,
    exactly when a label-preserving isomorphism exists.
    """
    key, els, _ = P.canon_record(masks)
    return key + b"|" + repr(tuple([labels[el] for el in els])).encode()


def _canonical_form(counts: list[int], faces: list) -> tuple[bytes, list[int], list[list[int]]]:
    """The canonical key of a face table, its positions in canonical order
    (see :meth:`OgPoset.canon_record`), and generators of its automorphism
    group, each a list sending every position to its image.

    Individualisation-refinement.  Colours start from each position's
    dimension and numbers of faces and cofaces by side, and are refined
    until stable (:func:`_refine`) along each position's four neighbour
    lists, read off the face table with the cofaces in the same pass as the
    faces.  While
    some class has more than one member, the search branches on the lowest
    such class: each member in turn, in position order, is individualised
    and the colouring refined again.  Colours keep their order through
    refinement and individualisation, so a discrete colouring, a leaf,
    numbers the positions dimension by dimension, and a member individualised
    on the way keeps its colour in every leaf below.  A leaf's certificate
    is the counts, then each dimension's face pairs listed in the leaf's
    order.  The key is the least certificate, and the order is that of the
    first leaf in search order to reach it: refinement commutes with
    renumbering, so the least certificate is the same for every numbering,
    while the leaf reached by individualising some member first is not.

    Two leaves with one certificate differ by an automorphism, the map from
    one leaf's order onto the other's.  The first leaf and the best leaf are
    kept, and each later leaf whose certificate equals one of theirs adds
    that map to the generators.  The search is pruned twice over (McKay,
    *Practical graph isomorphism*, Congr. Numer. 30, 1981; McKay and
    Piperno, *Practical graph isomorphism, II*, J. Symbolic Comput. 60,
    2014):

    - at a branching node, a member is skipped when the generators that fix
      the node's individualised path map it, in some number of steps, onto
      a member already tried;
    - a leaf equal to the first leaf sends the search back to the last node
      its path shares with the first leaf's path.

    Pruning keeps the key and the order.  An automorphism g fixing a
    node's path fixes its colouring, so it maps the subtree below member y
    onto the subtree below g(y), leaf by leaf with equal certificates.  A
    skipped member is such a g(y) with y tried before it.  A leaf equal to
    the first leaf is g(first leaf) for the g it adds, which fixes the
    shared path and sends the first path's next member onto its own; so its
    whole branch at the shared node is the image of the first path's, which
    came before it.  Every certificate of a skipped subtree is thus met
    earlier in search order, so the first leaf to reach the least
    certificate is never skipped.

    The generators generate the automorphism group.  Let v_1, ..., v_m be
    the members individualised along the first leaf's path, and G_k the
    automorphisms fixing v_1, ..., v_k.  G_m is trivial, since it fixes a
    discrete colouring.  Suppose that once the search leaves the first
    path's node at depth k + 1, the generators fixing v_1, ..., v_{k+1}
    generate G_{k+1}.  At depth k, take the members y != v_{k+1} of the
    G_k-orbit of v_{k+1}.  A tried y has below it an image of the first
    leaf, and the search finds one such leaf: within any subtree, the first
    branch that holds one is not skipped, as it would then be the image of
    an earlier branch that holds one too.  So a tried y adds a generator
    fixing v_1, ..., v_k and sending v_{k+1} to y.  A skipped y is the image
    of a tried member under generators fixing v_1, ..., v_k.  So the group
    H_k that these generators generate moves v_{k+1} onto its whole G_k-orbit,
    and its stabiliser of v_{k+1} contains G_{k+1}.  By orbit-stabiliser,
    H_k = G_k, and at k = 0 that is the whole group.
    """
    if not counts:
        return b"()", [], []
    offs = _offsets(counts)
    nbrs = [([], [], [], []) for _ in range(offs[-1])]
    for d in range(1, len(counts)):
        lo, hi = offs[d - 1], offs[d]
        for p, pair in enumerate(faces[d], hi):
            for side, js in enumerate(pair):
                for j in js:
                    nbrs[p][side].append(lo + j)
                    nbrs[lo + j][2 + side].append(p)
    start = [(d, *map(len, row)) for d in range(len(counts)) for row in nbrs[offs[d] : offs[d + 1]]]
    kept: list = []  # the first leaf's path, then (key, order, colours) of the first and best leaf
    gens: list[list[int]] = []

    def leaf(colors, path) -> int:
        # a discrete colouring numbers each dimension's positions consecutively
        at = [0] * len(colors)
        for p, c in enumerate(colors):
            at[c] = p
        cert = [tuple(counts)]
        for d in range(1, len(counts)):
            lo, hi = offs[d - 1], offs[d]
            r = [c - lo for c in colors[lo:hi]]  # the leaf's numbering of dimension d - 1
            rows = []
            for p in at[hi : offs[d + 1]]:
                mn, pl = faces[d][p - hi]
                rows.append((tuple(sorted([r[j] for j in mn])), tuple(sorted([r[j] for j in pl]))))
            cert.append(tuple(rows))
        key = repr(tuple(cert)).encode()
        if not kept:
            kept[:] = path, (key, at, colors), (key, at, colors)
            return len(path)
        first_path, first, best = kept
        for known in (first, best):
            if key == known[0]:
                gens.append([at[c] for c in known[2]])
                if known is first:
                    return next(k for k, (x, y) in enumerate(zip(path, first_path)) if x != y)
                return len(path)
        if key < best[0]:
            kept[2] = key, at, colors
        return len(path)

    def rec(colors, path) -> int:
        # returns the depth of the node the search goes back to
        # colours are ranks, so the classes are listed in colour order
        classes: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
        for q, c in enumerate(colors):
            classes[c].append(q)
        target = next((ms for ms in classes if len(ms) > 1), None)
        if target is None:
            return leaf(colors, path)
        tried, done = [], set()  # done: the orbits of the tried members
        for x in target:
            if x in done:
                continue
            tried.append(x)
            nxt = [2 * c for c in colors]
            nxt[x] -= 1
            back = rec(_refine(nbrs, nxt), path + [x])
            if back < len(path):
                return back
            fixing = [g for g in gens if all(g[v] == v for v in path)]
            done, reached = set(tried), list(tried)
            for q in reached:  # grows as the orbits do
                step = {g[q] for g in fixing} - done
                done |= step
                reached += step
        return len(path)

    rec(_refine(nbrs, start), [])
    return kept[2][0], kept[2][1], gens
