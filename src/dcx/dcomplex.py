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
    DcxError,
    IncompatibleAttachmentError,
    IdentityViolationError,
    LabelMismatchError,
    PreconditionError,
    ShapeNotAtomError,
)
from .flow import is_frame_acyclic
from .molecule import Molecule, _check_size, mol_cert, oriental_with_labels, paste_labelled
from .ogposet import (
    MINUS,
    PLUS,
    El,
    OgPoset,
    is_hasse_acyclic,
    labelled_key,
    record_iso,
)

CellId = tuple[int, int]

DEFAULT_ELEMENT_LIMIT = 2000


def element_limit() -> int:
    """The DCX_ELEMENT_LIMIT guard, or the default when it is unset.

    A value that is not a positive integer raises ``DcxError``: falling back
    to the default, or admitting nothing, would silently replace the limit
    the user meant to set.
    """
    raw = os.environ.get("DCX_ELEMENT_LIMIT")
    if raw is None:
        return DEFAULT_ELEMENT_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise DcxError(f"DCX_ELEMENT_LIMIT={raw!r} is not an integer") from None
    if limit < 1:
        raise DcxError(f"DCX_ELEMENT_LIMIT={raw!r} is not positive")
    return limit


def check_fits(what: str, size: int, shown: object = None) -> None:
    """Raise DcxError when ``what`` would build ``size`` elements, over the
    DCX_ELEMENT_LIMIT guard; ``shown`` writes a size too large to compute."""
    limit = element_limit()
    if size > limit:
        raise DcxError(
            f"{what} would build {shown or size} elements, over DCX_ELEMENT_LIMIT={limit}"
        )


def check_simplex_fits(what: str, n: int) -> None:
    """:func:`check_fits` for the oriented n-simplex, of 2^(n+1) - 1
    elements, sized before it is built.  The exponent is capped one past
    the limit's bit length, where the count is already over it, so a huge n
    is cheap."""
    bits = min(n + 1, element_limit().bit_length() + 1)
    check_fits(what, (1 << max(bits, 0)) - 1, f"2^{n + 1} - 1")


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
        cell = self.cell(cid)
        if cell.dim != cid[0]:
            raise IncompatibleAttachmentError(
                f"cell {cid} has a shape of dimension {cell.dim}"
            )
        if cell.attach.get(cell.shape.greatest()) != cid:
            raise IncompatibleAttachmentError(
                f"cell {cid}: greatest element must attach to the cell itself"
            )
        problem = restriction_problem(self, cell.shape.poset, cell.attach)
        if problem is not None:
            raise IncompatibleAttachmentError(f"cell {cid}: {problem}")

    def is_regular(self) -> bool:
        """True iff every attachment map is injective."""
        for cid in self.cell_ids():
            cell = self.cell(cid)
            if len(set(cell.attach.values())) != len(cell.attach):
                return False
        return True


def restriction_problem(
    X: DirectedComplex, P: OgPoset, labels: dict[El, CellId]
) -> Optional[str]:
    """Why a labelling of P by cells of X fails to restrict to the
    attachments, or None when it does.

    Every element must be labelled by an existing cell of its dimension,
    nothing else may be labelled, and the labels on an element's closure
    must be the attachment of that cell, read through the unique
    isomorphism of the shape with the closure.  No closure is extracted and
    no isomorphism is searched for: :func:`~dcx.ogposet.record_iso` reads
    it off the two canonical records.  A cell's shape is an atom, a
    molecule, so the map is the one isomorphism.

    Each record is memoised on its poset, keyed by the subset, so cells
    sharing one shape object share its closures' records: those of
    :func:`import_ssset` share one shape per dimension, and those read from
    dcomplex/1 one per shape spec.
    """
    for el in P.elements():
        cid = labels.get(el)
        if cid is None:
            return f"element {el} has no cell"
        if cid[0] != el[0]:
            return f"element {el} maps to a cell of another dimension"
        if not (0 <= cid[0] < len(X.cells) and 0 <= cid[1] < len(X.cells[cid[0]])):
            return f"element {el} maps to {cid}, which does not exist"
    if len(labels) > P.size():
        stray = min(set(labels).difference(P.elements()))
        return f"{stray} has a label but is not an element of the shape"
    for el in P.elements():
        cell = X.cell(labels[el])
        S = cell.shape.poset
        iso = record_iso(S, S.full_masks(), P, P.cl_el[P.pos(el)])
        if iso is None:
            return f"element {el} is not shaped like its cell"
        for e, image in iso.items():
            if labels[image] != cell.attach[e]:
                return f"labelling around {el} does not restrict to the attachment"
    return None


def skeleton(X: DirectedComplex, n: int) -> DirectedComplex:
    """Cells of dimension at most n."""
    if n < 0:
        return DirectedComplex([])
    return DirectedComplex([list(level) for level in X.cells[: n + 1]])


def atoms_acyclic(X: DirectedComplex) -> bool:
    """True iff the oriented Hasse diagram of every cell shape is acyclic."""
    return all(is_hasse_acyclic(X.cell(cid).shape.poset) for cid in X.cell_ids())


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
            P = self.shape.poset
            self._key = labelled_key(P, P.full_masks(), self.labels)
        return self._key

    def _boundary_key(self, k: int, alpha: str) -> bytes:
        """``boundary_diagram(self, k, alpha).key``, from the canonical
        record of the shape's boundary, memoised on the shape and read in
        place, with no extraction and no certificate."""
        P = self.shape.poset
        return labelled_key(P, P.boundary_masks(P.full_masks(), k, alpha), self.labels)

    def validate(self) -> "PastingDiagram":
        problem = restriction_problem(self.complex, self.shape.poset, self.labels)
        if problem is not None:
            raise LabelMismatchError(problem)
        return self

    def is_locally_injective(self) -> bool:
        """True iff the labelling is injective on the closure of each element."""
        P = self.shape.poset
        for el in P.elements():
            cl = P.cl_el[P.pos(el)]
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
    Q, amb = P.extract(masks)
    labels = {el: f.labels[amb[el]] for el in Q.elements()}
    cert = mol_cert(P, masks)
    return PastingDiagram(f.complex, Molecule(Q, cert), labels)


def paste_diagrams(f: PastingDiagram, g: PastingDiagram, k: int) -> PastingDiagram:
    """Pasting of two diagrams whose k-boundaries agree as labelled molecules."""
    if f.complex is not g.complex:
        raise LabelMismatchError("diagrams live over different complexes")
    W, labels = paste_labelled(f.shape.poset, f.labels, g.shape.poset, g.labels, k)
    shape = Molecule(W, ("paste", k, f.shape.cert, g.shape.cert))
    return PastingDiagram(f.complex, shape, labels)


def enumerate_molecules(X: DirectedComplex, max_cells: int) -> list[PastingDiagram]:
    """All pasting diagrams with at most ``max_cells`` top-dimensional labels.

    The pool is seeded with the single cells and closed under pasting,
    deduplicated by the canonical key of (shape, labels).  The
    DCX_ELEMENT_LIMIT guard bounds diagram size so that the closure
    terminates on complexes with cycles.  The result is sorted by key.

    The closure is semi-naive: pool diagrams are processed once each, in the
    order they entered the pool, and each is pasted only with diagrams
    processed before it or with itself.  So each pair meets once per level,
    when the later of the two is processed, and each of its two orders is
    tried at most once.  The partners come from an index of processed
    diagrams by ``(k, side, key)``, where ``key`` is the labelled key of the
    diagram's k-boundary on that side: ``f #_k g`` is tried only when the
    output key of f equals the input key of g.

    Two labelled keys are equal exactly when the canonical keys are and the
    glue that :func:`~dcx.ogposet.record_iso` reads off them carries labels
    onto equal labels (:func:`~dcx.ogposet.labelled_key`), which is when
    ``paste_diagrams`` succeeds: a key mismatch never drops a valid pasting,
    and a key match always pastes, so the closure pastes unguarded and a
    failure there raises as the bug it would be.  Levels k at or above the
    smaller dimension are skipped: there the k-boundary of the lower operand
    is all of it, so the pasting is the other operand again, already pooled.

    A pasting inherits its boundary keys at levels up to k from its
    operands; only the levels above k are read from its shape
    (:func:`_closure`).  A pair whose pasting would have more than
    ``max_cells`` top cells is skipped before it is pasted: at k below both
    dimensions no top cell is glued, so the pasting has the top cells of
    each operand of the larger dimension, and the pool would refuse it.

    Diagrams with equal face tables share one shape poset, so each
    canonical record, boundary and frame-acyclicity verdict is found once
    per shape, not once per diagram (:func:`_closure`).
    """
    return sorted((diag for diag, _ in _closure(X, max_cells)), key=lambda d: d.key)


def _closure(
    X: DirectedComplex, max_cells: int
) -> list[tuple[PastingDiagram, list[tuple[bytes, bytes]]]]:
    """The pool of :func:`enumerate_molecules` in the order it was admitted,
    each diagram with its boundary keys: the labelled keys of its input and
    output k-boundaries, one pair for each level k below its dimension.

    A pasting ``f #_k g`` of molecules U and V, with k below both
    dimensions, inherits the keys at levels up to k.  For j < k the
    j-boundaries of U #_k V are the images of those of U; its input
    k-boundary is the image of U's, and its output k-boundary that of V's.
    The pushout inclusion of such a boundary is an isomorphism onto its
    image that carries the labels.  Both are molecules, so it is the map of
    :func:`~dcx.ogposet.record_iso`, which keeps canonical indices, and the
    labelled key is kept with them.  A diagram's keys are completed when it
    is processed, before any of its pairs is formed, so both operands of a
    pasting have all of theirs.

    Diagrams of one shape share one poset: on admission a diagram's shape
    is replaced by the first poset admitted with the same face table, and
    keeps its own certificate.  Equal tables name the same elements with
    the same faces, so the labels are a labelling of the shared poset, and
    every record memoised on a poset (canonical records, boundaries, glues,
    frame-acyclicity) depends only on its immutable table and the subset
    asked about.  Keys, labels and outputs are therefore those of the
    diagram's own poset, and each record is computed once per shape.
    """
    if max_cells < 1:
        raise PreconditionError(f"max_cells must be at least 1, got {max_cells}")
    max_elements = element_limit()
    seen: set[bytes] = set()
    order: list[tuple[PastingDiagram, list[tuple[bytes, bytes]]]] = []
    shapes: dict[tuple, OgPoset] = {}  # (counts, faces) -> the first poset admitted with them

    def admit(diag: PastingDiagram, bounds: list[tuple[bytes, bytes]]) -> None:
        if diag.top_cell_count() > max_cells or diag.shape.size() > max_elements:
            return
        P = diag.shape.poset
        shared = shapes.setdefault((P.counts, P.faces), P)
        if shared is not P:
            diag.shape = Molecule(shared, diag.shape.cert)
        if diag.key not in seen:
            seen.add(diag.key)
            order.append((diag, bounds))

    for cid in X.cell_ids():
        admit(PastingDiagram.single(X, cid), [])
    index: dict[tuple[int, str, bytes], list] = {}
    for entry in order:  # grows as pastings are admitted
        new, bounds = entry
        bounds += [
            (new._boundary_key(k, MINUS), new._boundary_key(k, PLUS))
            for k in range(len(bounds), new.dim)
        ]
        for k, (source, target) in enumerate(bounds):
            # copied before new joins the buckets, so a self-pasting is tried once
            before = list(index.get((k, PLUS, source), ()))
            index.setdefault((k, MINUS, source), []).append(entry)
            index.setdefault((k, PLUS, target), []).append(entry)
            pairs = [(entry, other) for other in index.get((k, MINUS, target), ())]
            pairs += [(other, entry) for other in before]
            for (left, lbounds), (right, rbounds) in pairs:
                top = max(left.dim, right.dim)
                if sum(d.top_cell_count() for d in (left, right) if d.dim == top) > max_cells:
                    continue
                pasted = paste_diagrams(left, right, k)
                admit(pasted, lbounds[:k] + [(lbounds[k][0], rbounds[k][1])])
    return order


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
    if budget < 1:
        raise PreconditionError(f"budget must be at least 1, got {budget}")
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
        """``faces[0]`` is the number of vertices (or a list of them) and
        ``faces[d][s]`` the list of the d + 1 face indices of the simplex
        (d, s).  Lists of any other shape raise ``DcxError`` naming the
        dimension, and the simplex when there is one; :meth:`validate`
        checks the counts, indices and identities."""
        if not isinstance(faces, (list, tuple)):
            raise DcxError(f"the face table {faces!r} is not a list")
        head = faces[0] if faces else 0
        self.n_vertices = len(head) if isinstance(head, list) else head
        self.faces = []
        for d, level in enumerate(faces[1:], 1):
            if not isinstance(level, (list, tuple)):
                raise DcxError(f"dimension {d} of the face table is {level!r}, not a list")
            for s, row in enumerate(level):
                if not isinstance(row, (list, tuple)):
                    raise DcxError(f"simplex ({d},{s}) has face entry {row!r}, not an index list")
            self.faces.append(list(map(list, level)))
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
        """Check the counts, face indices and simplicial identities.

        The vertex count (or list) and every face index must be an ``int``,
        not a ``bool``, which JSON ``true`` and ``false`` read as.
        """
        n = self.n_vertices
        if type(n) is not int or n < 0:
            raise DcxError(f"the vertex count {n!r} is not a non-negative integer")
        for d in range(1, len(self.faces) + 1):
            below = self.count(d - 1)
            for s, row in enumerate(self.faces[d - 1]):
                if len(row) != d + 1:
                    raise IdentityViolationError(
                        f"simplex ({d},{s}) must list {d + 1} faces"
                    )
                for j in row:
                    if type(j) is not int:
                        raise DcxError(f"simplex ({d},{s}) has face index {j!r}, not an integer")
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

        _check_size("standard_simplex", n)
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


def import_ssset(S: SemiSimplicialSet) -> DirectedComplex:
    """Realise a semi-simplicial set as a directed complex.

    Each n-simplex becomes a cell shaped as the oriented n-simplex; the
    element labelled by a vertex subset attaches to the iterated face
    spanned by that subset.

    The complex is built, not checked: once ``S.validate()`` has passed, it
    is valid by construction, and :meth:`DirectedComplex.validate` would
    only repeat the argument below with one canonical search per closure in
    each shape.

    - Every d-cell has the shape ``oriental_with_labels(d)``, shared by all
      of them, and its greatest element, labelled by all d + 1 vertices,
      attaches to the cell itself.
    - The element labelled T attaches to ``S.subsimplex(d, s, T)``, of
      dimension |T| - 1, the element's own; ``S.validate()`` proved that
      every face index it follows names a simplex.
    - The closure of T is the oriented (|T| - 1)-simplex, labelled by the
      subsets of T; the order-preserving bijection of T with the vertices
      0..|T| - 1 is an isomorphism onto that cell's shape, and the only one,
      since orientals are rigid molecules.
    - Through it the labels agree with the attachment: for U a set of
      positions in T and T∘U the vertices of T at those positions,
      ``subsimplex(d, s, T∘U) = subsimplex(|T| - 1, subsimplex(d, s, T), U)``
      by the simplicial identities that ``S.validate()`` checked.
    """
    S.validate()
    check_simplex_fits(f"a {S.dim}-simplex", S.dim)
    cells: list[list[Cell]] = []
    for d in range(S.dim + 1):
        shape, labels = oriental_with_labels(d)
        maps = [{el: S.subsimplex(d, s, T) for T, el in labels.items()} for s in range(S.count(d))]
        cells.append([Cell(shape, m) for m in maps])
    return DirectedComplex(cells)
