"""Directed complexes: cell complexes whose cells have atom shapes.

A cell carries an atom shape and an attachment map sending every element
of the shape to a cell of the complex, one dimension for one dimension,
with the greatest element mapped to the cell itself.  Attachments need not
be injective, so complexes with loops are representable; regularity
(injective attachments everywhere) is a checked property.  Pasting
diagrams are molecule-shaped labellings compatible with the attachments;
they are the arrows of the omega-category presented by the complex.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    BoundaryMismatchError,
    BudgetError,
    IncompatibleAttachmentError,
    IdentityViolationError,
    LabelMismatchError,
    ShapeNotAtomError,
)
from .flow import is_frame_acyclic
from .molecule import (
    Molecule,
    mol_cert,
    oriental_with_labels,
    paste_with_maps,
)
from .ogposet import MINUS, PLUS, El, OgPoset, find_iso, is_hasse_acyclic

CellId = tuple[int, int]

DEFAULT_ELEMENT_LIMIT = 2000


def element_limit() -> int:
    try:
        return int(os.environ.get("DCX_ELEMENT_LIMIT", DEFAULT_ELEMENT_LIMIT))
    except ValueError:
        return DEFAULT_ELEMENT_LIMIT


class Cell:
    """An atom-shaped cell with its attachment to lower cells."""

    __slots__ = ("shape", "attach")

    def __init__(self, shape: Molecule, attach: dict[El, CellId]):
        if shape.greatest() is None:
            raise ShapeNotAtomError("cell shapes must have a greatest element")
        self.shape = shape
        self.attach = dict(attach)

    @property
    def dim(self) -> int:
        return self.shape.dim

    def __repr__(self):
        return f"Cell(dim={self.dim})"


class DirectedComplex:
    """Cells per dimension, closed under attachment."""

    def __init__(self, cells: list[list[Cell]]):
        trimmed = list(cells)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        self.cells = trimmed

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def cell(self, cid: CellId) -> Cell:
        return self.cells[cid[0]][cid[1]]

    def cell_ids(self) -> Iterator[CellId]:
        for d, level in enumerate(self.cells):
            for i in range(len(level)):
                yield (d, i)

    def n_cells(self) -> int:
        return sum(len(level) for level in self.cells)

    def validate(self) -> "DirectedComplex":
        for cid in self.cell_ids():
            self._validate_cell(cid)
        return self

    def _validate_cell(self, cid: CellId):
        d, _ = cid
        cell = self.cell(cid)
        shape = cell.shape
        if shape.dim != d:
            raise IncompatibleAttachmentError(
                f"cell {cid} has a shape of dimension {shape.dim}"
            )
        top = shape.greatest()
        for el in shape.poset.elements():
            target = cell.attach.get(el)
            if target is None:
                raise IncompatibleAttachmentError(f"cell {cid}: element {el} unattached")
            if target[0] != el[0]:
                raise IncompatibleAttachmentError(
                    f"cell {cid}: element {el} attached across dimensions"
                )
            if not (0 <= target[0] < len(self.cells) and 0 <= target[1] < len(self.cells[target[0]])):
                raise IncompatibleAttachmentError(f"cell {cid}: {target} does not exist")
        if cell.attach[top] != cid:
            raise IncompatibleAttachmentError(
                f"cell {cid}: greatest element must attach to the cell itself"
            )
        # face compatibility through the unique shape isomorphisms
        for el in shape.poset.elements():
            sub = self.cell(cell.attach[el])
            clq, amb = shape.poset.extract(shape.poset.cl_el[el[0]][el[1]])
            iso = find_iso(sub.shape.poset, clq)
            if iso is None:
                raise IncompatibleAttachmentError(
                    f"cell {cid}: face at {el} is not shaped like its cell"
                )
            for e in sub.shape.poset.elements():
                if cell.attach[amb[iso[e]]] != sub.attach[e]:
                    raise IncompatibleAttachmentError(
                        f"cell {cid}: attachment at {el} does not commute"
                    )

    def is_regular(self) -> bool:
        """True iff every attachment map is injective."""
        for cid in self.cell_ids():
            cell = self.cell(cid)
            if len(set(cell.attach.values())) != len(cell.attach):
                return False
        return True


def validate_complex(X: DirectedComplex) -> DirectedComplex:
    """Check all attachment compatibility conditions."""
    return X.validate()


def skeleton(X: DirectedComplex, n: int) -> DirectedComplex:
    """Cells of dimension at most n."""
    if n < 0:
        return DirectedComplex([])
    return DirectedComplex([list(level) for level in X.cells[: n + 1]])


def atoms_acyclic(X: DirectedComplex) -> bool:
    """True iff the oriented Hasse diagram of every cell shape is acyclic."""
    seen: set[bytes] = set()
    for cid in X.cell_ids():
        shape = X.cell(cid).shape
        key = shape.key
        if key in seen:
            continue
        seen.add(key)
        if not is_hasse_acyclic(shape.poset):
            return False
    return True


# -- pasting diagrams -----------------------------------------------------------


class PastingDiagram:
    """A molecule-shaped, attachment-compatible labelling of cells."""

    __slots__ = ("complex", "shape", "labels", "_key")

    def __init__(self, X: DirectedComplex, shape: Molecule, labels: dict[El, CellId]):
        self.complex = X
        self.shape = shape
        self.labels = dict(labels)
        self._key = None

    @classmethod
    def single(cls, X: DirectedComplex, cid: CellId) -> "PastingDiagram":
        cell = X.cell(cid)
        return cls(X, cell.shape, dict(cell.attach))

    @property
    def dim(self) -> int:
        return self.shape.dim

    def top_cell_count(self) -> int:
        return self.shape.counts[self.shape.dim]

    @property
    def key(self) -> bytes:
        if self._key is None:
            relabel = self.shape.poset.canonical()[1]
            order = sorted(self.labels, key=lambda el: (el[0], relabel[el]))
            self._key = (
                self.shape.key
                + b"|"
                + repr(tuple(self.labels[el] for el in order)).encode()
            )
        return self._key

    def validate(self) -> "PastingDiagram":
        P = self.shape.poset
        for el in P.elements():
            cid = self.labels.get(el)
            if cid is None or cid[0] != el[0]:
                raise LabelMismatchError(f"element {el} mislabelled")
            cell = self.complex.cell(cid)
            clq, amb = P.extract(P.cl_el[el[0]][el[1]])
            iso = find_iso(cell.shape.poset, clq)
            if iso is None:
                raise LabelMismatchError(f"element {el} is not shaped like its cell")
            for e in cell.shape.poset.elements():
                if self.labels[amb[iso[e]]] != cell.attach[e]:
                    raise LabelMismatchError(
                        f"labelling around {el} does not restrict to the attachment"
                    )
        return self

    def is_locally_injective(self) -> bool:
        """True iff the labelling is injective on the closure of each element."""
        P = self.shape.poset
        for el in P.elements():
            cl = P.cl_el[el[0]][el[1]]
            seen = set()
            for sub in P.masks_els(cl):
                cid = self.labels[sub]
                if cid in seen:
                    return False
                seen.add(cid)
        return True

    def __repr__(self):
        return f"PastingDiagram(shape_counts={list(self.shape.counts)})"


def boundary_diagram(f: PastingDiagram, k: int, alpha: str) -> PastingDiagram:
    """Restriction of the diagram along the k-boundary of its shape."""
    P = f.shape.poset
    masks = P.boundary_masks(P.full_masks(), k, alpha)
    cert = mol_cert(P, masks)
    Q, amb = P.extract(masks)
    labels = {el: f.labels[amb[el]] for el in Q.elements()}
    return PastingDiagram(f.complex, Molecule(Q, cert), labels)


def paste_diagrams(f: PastingDiagram, g: PastingDiagram, k: int) -> PastingDiagram:
    """Pasting of two diagrams whose k-boundaries agree as labelled molecules."""
    if f.complex is not g.complex:
        raise LabelMismatchError("diagrams live over different complexes")
    bf = boundary_diagram(f, k, PLUS)
    bg = boundary_diagram(g, k, MINUS)
    iso = find_iso(bf.shape.poset, bg.shape.poset)
    if iso is None:
        raise BoundaryMismatchError("boundary shapes do not match")
    for el in bf.shape.poset.elements():
        if bf.labels[el] != bg.labels[iso[el]]:
            raise LabelMismatchError("boundary labels do not match")
    shape, map_f, map_g = paste_with_maps(f.shape, g.shape, k)
    labels: dict[El, CellId] = {}
    for el, cid in f.labels.items():
        labels[map_f[el]] = cid
    for el, cid in g.labels.items():
        tgt = map_g[el]
        if tgt in labels and labels[tgt] != cid:
            raise LabelMismatchError("glued labels disagree")
        labels[tgt] = cid
    return PastingDiagram(f.complex, shape, labels)


def enumerate_molecules(
    X: DirectedComplex, max_cells: int, max_elements: Optional[int] = None
) -> list[PastingDiagram]:
    """All pasting diagrams with at most ``max_cells`` top-dimensional labels.

    Generated by seeding with single cells and closing under pasting at
    every level, deduplicating by the canonical key of (shape, labels).
    ``max_elements`` (default: the DCX_ELEMENT_LIMIT guard) bounds diagram
    size so the closure terminates on complexes with cycles.
    """
    if max_elements is None:
        max_elements = element_limit()
    pool: dict[bytes, PastingDiagram] = {}
    order: list[PastingDiagram] = []
    for cid in X.cell_ids():
        diag = PastingDiagram.single(X, cid)
        if diag.top_cell_count() <= max_cells and diag.shape.size() <= max_elements:
            if diag.key not in pool:
                pool[diag.key] = diag
                order.append(diag)
    frontier = list(order)
    while frontier:
        fresh: list[PastingDiagram] = []
        for new in frontier:
            partners = list(order)
            for other in partners:
                for left, right in ((new, other), (other, new)):
                    top_dim = max(left.dim, right.dim)
                    for k in range(top_dim):
                        try:
                            h = paste_diagrams(left, right, k)
                        except (BoundaryMismatchError, LabelMismatchError):
                            continue
                        if h.top_cell_count() > max_cells:
                            continue
                        if h.shape.size() > max_elements:
                            continue
                        if h.key in pool:
                            continue
                        pool[h.key] = h
                        order.append(h)
                        fresh.append(h)
        frontier = fresh
    return sorted(order, key=lambda d: d.key)


@dataclass
class Verdict:
    kind: str
    budget: Optional[int] = None
    diagram: Optional[PastingDiagram] = None

    PROVEN_BY_ACYCLIC_ATOMS = "proven_by_acyclic_atoms"
    PROVEN_BY_DIMENSION = "proven_by_dimension"
    CHECKED_UP_TO_BUDGET = "checked_up_to_budget"
    COUNTEREXAMPLE = "counterexample"

    def is_proof(self) -> bool:
        return self.kind in (self.PROVEN_BY_ACYCLIC_ATOMS, self.PROVEN_BY_DIMENSION)

    def to_json(self) -> dict:
        out = {"verdict": self.kind}
        if self.budget is not None:
            out["budget"] = self.budget
        if self.diagram is not None:
            out["counterexample_shape"] = list(self.diagram.shape.counts)
        return out


def has_frame_acyclic_molecules(X: DirectedComplex, budget: int = 4) -> Verdict:
    """Decide, or gather bounded evidence, that every pasting diagram over X
    has a frame-acyclic shape.

    Acyclic atoms and dimension at most 3 are sound proofs; otherwise all
    diagrams within the budget are checked directly.
    """
    if atoms_acyclic(X):
        return Verdict(Verdict.PROVEN_BY_ACYCLIC_ATOMS)
    if X.dim <= 3:
        return Verdict(Verdict.PROVEN_BY_DIMENSION)
    for diag in enumerate_molecules(X, budget):
        if not is_frame_acyclic(diag.shape):
            return Verdict(Verdict.COUNTEREXAMPLE, diagram=diag)
    return Verdict(Verdict.CHECKED_UP_TO_BUDGET, budget=budget)


# -- semi-simplicial sets ----------------------------------------------------------


class SemiSimplicialSet:
    """Simplex lists per dimension; simplex faces omit one vertex each."""

    def __init__(self, faces: list):
        # faces[0]: number of vertices; faces[d][i]: list of d+1 face indices
        if not faces:
            self.n_vertices = 0
            self.faces = []
            return
        head = faces[0]
        self.n_vertices = head if isinstance(head, int) else (len(head) if head else 0)
        self.faces = [list(map(list, level)) for level in faces[1:]]
        while self.faces and not self.faces[-1]:
            self.faces.pop()

    @property
    def dim(self) -> int:
        return len(self.faces) if self.faces or self.n_vertices else -1

    def count(self, d: int) -> int:
        if d == 0:
            return self.n_vertices
        if 1 <= d <= len(self.faces):
            return len(self.faces[d - 1])
        return 0

    def face(self, d: int, s: int, j: int) -> int:
        return self.faces[d - 1][s][j]

    def validate(self) -> "SemiSimplicialSet":
        for d in range(1, len(self.faces) + 1):
            below = self.count(d - 1)
            for s, row in enumerate(self.faces[d - 1]):
                if len(row) != d + 1:
                    raise IdentityViolationError(
                        f"simplex ({d},{s}) must list {d + 1} faces"
                    )
                for j in row:
                    if not (0 <= j < below):
                        raise IdentityViolationError(
                            f"simplex ({d},{s}) has a dangling face index"
                        )
        for d in range(2, len(self.faces) + 1):
            for s in range(self.count(d)):
                for j in range(d + 1):
                    for i in range(j):
                        lhs = self.face(d - 1, self.face(d, s, j), i)
                        rhs = self.face(d - 1, self.face(d, s, i), j - 1)
                        if lhs != rhs:
                            raise IdentityViolationError(
                                f"identity d_{i} d_{j} fails at simplex ({d},{s})"
                            )
        return self

    def subsimplex(self, d: int, s: int, vertices: frozenset) -> tuple[int, int]:
        """The iterated face spanned by a vertex-position subset."""
        drop = sorted(set(range(d + 1)) - vertices, reverse=True)
        cur_d, cur_s = d, s
        for j in drop:
            cur_s = self.face(cur_d, cur_s, j)
            cur_d -= 1
        return cur_d, cur_s

    @classmethod
    def standard_simplex(cls, n: int) -> "SemiSimplicialSet":
        """The semi-simplicial set of all nonempty subsets of {0..n}."""
        import itertools

        by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
        for r in range(1, n + 2):
            for combo in itertools.combinations(range(n + 1), r):
                by_dim[r - 1].append(combo)
        index = [
            {s: i for i, s in enumerate(level)} for level in by_dim
        ]
        faces: list = [len(by_dim[0])]
        for d in range(1, n + 1):
            level = []
            for s in by_dim[d]:
                level.append(
                    [index[d - 1][s[:j] + s[j + 1:]] for j in range(d + 1)]
                )
            faces.append(level)
        return cls(faces)


_oriental_cache: dict[int, tuple] = {}


def _oriental_labelled(n: int):
    if n not in _oriental_cache:
        _oriental_cache[n] = oriental_with_labels(n)
    return _oriental_cache[n]


def import_ssset(S: SemiSimplicialSet) -> DirectedComplex:
    """Realise a semi-simplicial set as a directed complex.

    Each n-simplex becomes a cell shaped as the oriented n-simplex; the
    element labelled by a vertex subset attaches to the iterated face
    spanned by that subset.
    """
    S.validate()
    cells: list[list[Cell]] = []
    if S.n_vertices:
        shape0, _ = _oriental_labelled(0)
        cells.append(
            [Cell(shape0, {(0, 0): (0, i)}) for i in range(S.n_vertices)]
        )
    for d in range(1, S.dim + 1):
        level = []
        shape, labels = _oriental_labelled(d)
        for s in range(S.count(d)):
            attach: dict[El, CellId] = {}
            for subset, el in labels.items():
                attach[el] = S.subsimplex(d, s, frozenset(subset))
            level.append(Cell(shape, attach))
        cells.append(level)
    X = DirectedComplex(cells)
    return X.validate()
