"""Molecules: the inductive class of composable shapes.

A molecule is an oriented graded poset together with a construction
certificate witnessing membership in the class generated from the point by
pasting along matching boundaries and by forming atoms from parallel round
molecules.  Certificates are nested tuples mirroring their JSON form:

    ("point",)
    ("atom", cert_in, cert_out)
    ("paste", k, cert_left, cert_right)

Recognition (:func:`is_molecule`) is a memoised brute-force search over
closed subsets, so everything here is meant for desk-scale inputs.
"""
from __future__ import annotations

from typing import Iterator, Optional

from .errors import (
    BoundaryMismatchError,
    LabelMismatchError,
    NotParallelError,
    NotRoundError,
    PreconditionError,
)
from .ogposet import (
    MINUS,
    PLUS,
    Closed,
    El,
    Masks,
    OgIso,
    OgPoset,
    _bits,
    _memoised,
    closed_rows,
    down_sets,
    record_iso,
    unique_iso,
)

Cert = tuple

POINT_CERT: Cert = ("point",)
ARROW_CERT: Cert = ("atom", POINT_CERT, POINT_CERT)


class Molecule:
    """An oriented graded poset plus a construction certificate."""

    __slots__ = ("poset", "_cert")

    def __init__(self, poset: OgPoset, cert: Optional[Cert] = None):
        self.poset = poset
        self._cert = cert

    @property
    def cert(self) -> Cert:
        if self._cert is None:
            found = is_molecule(self.poset)
            if found is None:
                raise NotRoundError("poset is not a molecule")
            self._cert = found
        return self._cert

    @property
    def key(self) -> bytes:
        return self.poset.canonical_key()

    @property
    def dim(self) -> int:
        return self.poset.dim

    @property
    def counts(self) -> tuple[int, ...]:
        return self.poset.counts

    def size(self) -> int:
        return self.poset.size()

    def is_atom(self) -> bool:
        return self.greatest() is not None

    def greatest(self) -> Optional[El]:
        top = self.poset.masks_els(self.poset.maximal_masks(self.poset.full_masks()))
        return top[0] if len(top) == 1 else None

    def as_closed(self) -> Closed:
        return Closed.full(self.poset)

    def boundary(self, k: int, alpha: str) -> Closed:
        return self.as_closed().boundary(k, alpha)

    def __eq__(self, other):
        return isinstance(other, Molecule) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Molecule(counts={list(self.counts)})"


# -- elementary constructors --------------------------------------------------


def point() -> Molecule:
    return Molecule(OgPoset((1,), [[]]), POINT_CERT)


def arrow() -> Molecule:
    return atom(point(), point())


def boundary_glue(
    P: OgPoset, Q: OgPoset, k: int, p_side: str, q_side: str
) -> Optional[dict[El, El]]:
    """Match the ``q_side`` k-boundary of Q with the ``p_side`` k-boundary of P.

    Returns the isomorphism as a map from elements of Q to elements of P,
    or None when the two boundaries are not isomorphic, read off their
    canonical records by :func:`~dcx.ogposet.record_iso`.  The boundary of
    a molecule is a molecule, so the map is the one isomorphism.
    """
    q_bd = Q.boundary_masks(Q.full_masks(), k, q_side)
    return record_iso(Q, q_bd, P, P.boundary_masks(P.full_masks(), k, p_side))


def pushout(P: OgPoset, Q: OgPoset, glue: dict[El, El]):
    """Glue Q onto P, identifying each key of ``glue`` with its value.

    Elements of P keep their indices; the unglued elements of Q follow them
    in each dimension, in order.  Returns ``(counts, faces, map_q)`` with the
    face data as lists, so that callers can add elements on top.

    When ``glue`` is injective and keeps dimensions, ``map_q`` is injective,
    since the unglued elements take indices past P's.  So each unglued
    element of Q keeps disjoint, non-repeating sides of the same sizes, and
    P's elements keep theirs: the table is valid, and regular when P and Q
    are.
    """
    nd = max(len(P.counts), len(Q.counts))
    counts = list(P.counts) + [0] * (nd - len(P.counts))
    map_q: dict[El, El] = {}
    for el in Q.elements():
        if el in glue:
            map_q[el] = glue[el]
        else:
            map_q[el] = (el[0], counts[el[0]])
            counts[el[0]] += 1
    faces = [list(P.faces[d]) if d < len(P.counts) else [] for d in range(nd)]
    for d in range(1, len(Q.counts)):
        for i, (mn, pl) in enumerate(Q.faces[d]):
            if (d, i) in glue:
                continue
            faces[d].append(
                (
                    tuple(sorted(map_q[(d - 1, j)][1] for j in mn)),
                    tuple(sorted(map_q[(d - 1, j)][1] for j in pl)),
                )
            )
    return counts, faces, map_q


def paste_posets(P: OgPoset, Q: OgPoset, k: int):
    """Pushout of two posets along the unique iso of their k-boundaries.

    Returns ``(W, map_q)``: P keeps its indices in W.  Raises
    BoundaryMismatchError when the output k-boundary of P is not
    isomorphic to the input k-boundary of Q.
    The glue is a bijection of that boundary of Q onto that of P, so W's
    table is valid, and regular when P and Q are (see :func:`pushout`).
    """
    if k < 0:
        raise BoundaryMismatchError("pasting level must be >= 0")
    glue = boundary_glue(P, Q, k, PLUS, MINUS)
    if glue is None:
        raise BoundaryMismatchError(
            f"output {k}-boundary of the left factor does not match the "
            f"input {k}-boundary of the right factor"
        )
    counts, faces, map_q = pushout(P, Q, glue)
    return OgPoset(counts, faces), map_q


def paste_labelled(P: OgPoset, left: dict, Q: OgPoset, right: dict, k: int):
    """Pasting of two labelled posets along their k-boundaries.

    ``left`` and ``right`` label the elements of P and Q.  Returns
    ``(W, labels)``: the pushout of :func:`paste_posets` and the two
    labellings carried onto it.  Raises BoundaryMismatchError when the
    output k-boundary of P does not match the input k-boundary of Q, and
    LabelMismatchError when two glued elements carry different labels.
    """
    W, map_q = paste_posets(P, Q, k)
    labels = dict(left)
    for el, label in right.items():
        if labels.setdefault(map_q[el], label) != label:
            raise LabelMismatchError("boundary labels do not match")
    return W, labels


def paste(U: Molecule, V: Molecule, k: int) -> Molecule:
    """The pasting of U and V along their k-boundary."""
    W, _ = paste_posets(U.poset, V.poset, k)
    return Molecule(W, ("paste", k, U.cert, V.cert))


def atom(U: Molecule, V: Molecule) -> Molecule:
    """The unique (k+1)-atom with input boundary U and output boundary V.

    The glue is injective.  By globularity each boundary isomorphism sends
    V's (k-2)-boundaries onto U's, where the two agree, and by roundness
    an element of U outside them lies in one (k-1)-boundary only.  So the
    pushout is valid and regular (see :func:`pushout`).  The new top has
    U's k-cells as inputs and V's k-cells as outputs.  The glue stops at
    dimension k - 1, so V's k-cells follow U's in W: the two sides are
    disjoint, nonempty and repeat nothing.
    """
    if not is_round(U):
        raise NotRoundError("input molecule is not round")
    if not is_round(V):
        raise NotRoundError("output molecule is not round")
    k = U.dim
    if V.dim != k:
        raise NotParallelError("input and output molecules differ in dimension")
    glue: dict[El, El] = {}
    for alpha in (MINUS, PLUS):
        part = boundary_glue(U.poset, V.poset, k - 1, alpha, alpha)
        if part is None:
            raise NotParallelError(f"{alpha}-boundaries do not match")
        for src, dst in part.items():
            if glue.setdefault(src, dst) != dst:
                raise NotParallelError("boundary isomorphisms disagree on the sphere")
    counts, faces, map_v = pushout(U.poset, V.poset, glue)
    top_minus = tuple(range(U.poset.counts[k]))
    top_plus = tuple(sorted(map_v[(k, i)][1] for i in range(V.poset.counts[k])))
    counts.append(1)
    faces.append([(top_minus, top_plus)])
    W = OgPoset(counts, faces)
    return Molecule(W, ("atom", U.cert, V.cert))


def _check_size(what: str, n: int) -> None:
    if n < 0:
        raise PreconditionError(f"{what} needs a size >= 0, got {n}")


def globe(k: int) -> Molecule:
    """The k-globe: two elements in each dimension below k and one in
    dimension k, each with inputs (0,) and outputs (1,) one dimension down,
    a valid and regular table."""
    _check_size("globe", k)
    counts = [2] * k + [1]
    faces = [[]] + [[((0,), (1,))] * c for c in counts[1:]]
    cert = POINT_CERT
    for _ in range(k):
        cert = ("atom", cert, cert)
    return Molecule(OgPoset(counts, faces), cert)


def path(k: int) -> Molecule:
    """The 0-composite of k arrows (the point when k = 0)."""
    _check_size("path", k)
    out = point() if k == 0 else arrow()
    for _ in range(k - 1):
        out = paste(out, arrow(), 0)
    return out


def suspension(U: Molecule) -> Molecule:
    """Suspension: two new poles, every element shifted one dimension up.

    Each vertex becomes an arrow with input pole (0,) and output pole (1,),
    and every other element keeps its sides, whose indices now name the
    shifted elements one dimension down.  So the table is valid, and
    regular when U's is, as a molecule's is.
    """

    def sus_cert(c: Cert) -> Cert:
        if c[0] == "point":
            return ARROW_CERT
        if c[0] == "atom":
            return ("atom", sus_cert(c[1]), sus_cert(c[2]))
        return ("paste", c[1] + 1, sus_cert(c[2]), sus_cert(c[3]))

    cert = sus_cert(U.cert)
    P = U.poset
    faces = [[], [((0,), (1,))] * P.counts[0], *P.faces[1:]]
    return Molecule(OgPoset([2, *P.counts], faces), cert)


def join_with_maps(U: Molecule, V: Molecule):
    """Join of two molecules.

    Elements are those of U, those of V, and pairs (x, y) of dimension
    dim x + dim y + 1.  Faces of a pair follow the sign rule pinned by the
    requirement that the join of an arrow and a point is the 2-simplex:

        Delta^a (x, y) = {(x', y) : x' in Delta^a x}
                       u {(x, y') : y' in Delta^a' y},   a' = a iff dim x odd,

    where a 0-dimensional component contributes the opposite pure element in
    place of its (empty) face set, on the output side only.

    Returns ``(W, map_u, map_v, map_pair)``.

    The table is valid and regular.  U and V are copied with their sides.
    A pair's x-part reads the two disjoint sides of x and its y-part the
    two disjoint sides of y, as a' flips with a; the pairs (x', y) and
    (x, y') are distinct elements, and a pure element stands on one side
    only.  Each side is nonempty: a part of positive dimension reads a
    nonempty side of a molecule's element, and when x is a point the
    output side holds V's y and the input side reads y's output side, or
    holds U's x.
    """
    nd = U.poset.dim + V.poset.dim + 2
    counts = [0] * nd
    faces: list[list] = [[] for _ in range(nd)]
    map_u: dict[El, El] = {}
    map_v: dict[El, El] = {}
    map_pair: dict[tuple[El, El], El] = {}

    def add(d: int, minus: list[El], plus: list[El]) -> El:
        """Number a new d-element with the given faces."""
        if d:
            faces[d].append(
                (tuple(sorted(e[1] for e in minus)), tuple(sorted(e[1] for e in plus)))
            )
        counts[d] += 1
        return (d, counts[d] - 1)

    # each dimension numbers the elements of U, then those of V, then pairs
    for X, el_map in ((U.poset, map_u), (V.poset, map_v)):
        for d, i in X.elements():
            mn, pl = X.face_sets((d, i))
            el_map[(d, i)] = add(
                d, [el_map[(d - 1, j)] for j in mn], [el_map[(d - 1, j)] for j in pl]
            )

    def pair_faces(x: El, y: El, alpha: str) -> list[El]:
        out = []
        dx, ix = x
        dy, iy = y
        if dx >= 1:
            mn, pl = U.poset.faces[dx][ix]
            for j in (mn if alpha == MINUS else pl):
                out.append(map_pair[((dx - 1, j), y)])
        elif alpha == PLUS:
            out.append(map_v[y])
        alpha2 = alpha if dx % 2 == 1 else (MINUS if alpha == PLUS else PLUS)
        if dy >= 1:
            mn, pl = V.poset.faces[dy][iy]
            for j in (mn if alpha2 == MINUS else pl):
                out.append(map_pair[(x, (dy - 1, j))])
        elif alpha2 == PLUS:
            out.append(map_u[x])
        return out

    # the faces of a pair of dimensions (a, b) are elements of U and V and
    # pairs of dimensions (a - 1, b) and (a, b - 1), all numbered before it
    for a in range(len(U.poset.counts)):
        for b in range(len(V.poset.counts)):
            for i in range(U.poset.counts[a]):
                for j in range(V.poset.counts[b]):
                    x, y = (a, i), (b, j)
                    map_pair[(x, y)] = add(
                        a + b + 1, pair_faces(x, y, MINUS), pair_faces(x, y, PLUS)
                    )
    W = OgPoset(counts, faces)
    return Molecule(W), map_u, map_v, map_pair


def join(U: Molecule, V: Molecule) -> Molecule:
    return join_with_maps(U, V)[0]


def oriental_with_labels(n: int):
    """The oriented n-simplex with its elements labelled by vertex subsets.

    Returns ``(Molecule, labels)`` with ``labels`` a dict from frozensets of
    vertices to elements.
    """
    _check_size("oriental", n)
    mol = point()
    labels: dict[frozenset, El] = {frozenset([0]): (0, 0)}
    for v in range(1, n + 1):
        mol2, mu, mv, mp = join_with_maps(mol, point())
        new_labels: dict[frozenset, El] = {}
        for T, el in labels.items():
            new_labels[T] = mu[el]
            new_labels[T | {v}] = mp[(el, (0, 0))]
        new_labels[frozenset([v])] = mv[(0, 0)]
        mol, labels = mol2, new_labels
    return mol, labels


def oriental(n: int) -> Molecule:
    """The oriented n-simplex: an iterated join of n + 1 points."""
    return oriental_with_labels(n)[0]


def parse_tree(text: str):
    """Parse a parenthesised planar tree such as "((),())"."""
    text = "".join(text.split())
    pos = 0

    def rec():
        nonlocal pos
        if pos >= len(text) or text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos}")
        pos += 1
        children = []
        while pos < len(text) and text[pos] == "(":
            children.append(rec())
            if pos < len(text) and text[pos] == ",":
                pos += 1
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"expected ')' at position {pos}")
        pos += 1
        return tuple(children)

    tree = rec()
    if pos != len(text):
        raise ValueError("trailing characters after tree")
    return tree


def theta_from_tree(tree) -> Molecule:
    """The theta encoded by a planar tree.

    A leaf is the point; a node with children t1..tk is the 0-composite of
    the suspensions of the children's thetas.
    """
    if isinstance(tree, str):
        tree = parse_tree(tree)
    if not tree:
        return point()
    out = None
    for child in tree:
        piece = suspension(theta_from_tree(child))
        out = piece if out is None else paste(out, piece, 0)
    return out


# -- roundness ----------------------------------------------------------------


def is_round_masks(P: OgPoset, masks: Masks) -> bool:
    """For each k below the dimension, the union of the two (k-1)-boundaries
    is the intersection of the two k-boundaries; each boundary is computed
    once, and both (-1)-boundaries are empty."""
    union = 0
    for k in range(P.masks_dim(masks)):
        minus, plus = P.boundary_masks(masks, k, MINUS), P.boundary_masks(masks, k, PLUS)
        if union != minus & plus:
            return False
        union = minus | plus
    return True


def is_round(U: Molecule) -> bool:
    """Round: lower boundaries collapse onto intersections of top boundaries."""
    return is_round_masks(U.poset, U.poset.full_masks())


# -- recognition --------------------------------------------------------------


def _path_cert(length: int) -> Cert:
    if length == 1:
        return ARROW_CERT
    return ("paste", 0, ARROW_CERT, _path_cert(length - 1))


@_memoised("mol")
def mol_cert(P: OgPoset, masks: Masks) -> Optional[Cert]:
    """Certificate witnessing that a closed subset is a molecule, or None.

    A subset that is not an atom is recognised by its first split, at the
    highest level that has one; :func:`splits_masks` checks candidates only
    up to that split.  Kept in the "mol" memo, keyed by ``masks``.
    """
    d = P.masks_dim(masks)
    if d < 0:
        return None
    if d == 0:
        return POINT_CERT if masks.bit_count() == 1 else None
    if not P.connected_masks(masks):
        return None
    if d == 1:
        # A connected 1-dimensional subset is a directed path iff each edge
        # has one source and one target, no two edges share a source or a
        # target, and it has one vertex more than edges.  Connected with
        # one vertex more than edges, it is a tree; each vertex has at most
        # one edge in and one out, so the tree is a line whose edges all
        # point one way, a directed path.  A directed path passes all three
        # tests, so they decide it exactly.  The
        # split search gives the same certificate, but its recursion deepens
        # with the length n and its cost grows faster than n^2: without this
        # case, recognising path(50) took 12.9 ms and path(200) 568 ms,
        # against 0.21 and 0.64 ms with it (Python 3.11, CPU time).
        edges = [P.faces[1][i] for _, i in P.masks_els(masks & ~P.upto(0))]
        if (
            all(len(mn) == len(pl) == 1 for mn, pl in edges)
            and len({mn for mn, _ in edges}) == len({pl for _, pl in edges}) == len(edges)
            and masks.bit_count() == 2 * len(edges) + 1
        ):
            return _path_cert(len(edges))
        return None
    if P.maximal_masks(masks).bit_count() == 1:
        return _atom_cert(P, masks)
    # splits_masks yields only splits whose two sides are molecules
    for k in range(d - 1, -1, -1):
        for left, right in splits_masks(P, masks, k):
            return ("paste", k, mol_cert(P, left), mol_cert(P, right))
    return None


def _atom_cert(P: OgPoset, masks: Masks) -> Optional[Cert]:
    d = P.masks_dim(masks)
    um = P.boundary_masks(masks, d - 1, MINUS)
    up = P.boundary_masks(masks, d - 1, PLUS)
    if um | up != masks & ~P.maximal_masks(masks):
        return None
    if P.masks_dim(um) != d - 1 or P.masks_dim(up) != d - 1:
        return None
    for beta in (MINUS, PLUS):
        if P.boundary_masks(um, d - 2, beta) != P.boundary_masks(up, d - 2, beta):
            return None
    if not (is_round_masks(P, um) and is_round_masks(P, up)):
        return None
    cm = mol_cert(P, um)
    if cm is None:
        return None
    cp = mol_cert(P, up)
    if cp is None:
        return None
    return ("atom", cm, cp)


def is_molecule(P: OgPoset) -> Optional[Cert]:
    """Brute-force recognition; returns a replayable certificate or None."""
    return mol_cert(P, P.full_masks())


def replay(cert: Cert) -> Molecule:
    """Rebuild a molecule from its certificate.

    A certificate is a tree whose subtrees repeat, so each distinct
    sub-certificate is rebuilt once per call, keyed by its value: equal
    certificates read from a file are not one object.
    """
    built: dict[Cert, Molecule] = {}

    def rebuild(c: Cert) -> Molecule:
        if c not in built:
            if c[0] == "point":
                built[c] = point()
            elif c[0] == "atom":
                built[c] = atom(rebuild(c[1]), rebuild(c[2]))
            elif c[0] == "paste":
                built[c] = paste(rebuild(c[2]), rebuild(c[3]), c[1])
            else:
                raise ValueError(f"unknown certificate head {c[0]!r}")
        return built[c]

    return rebuild(cert)


# -- splits and submolecules ---------------------------------------------------


def splits_masks(P: OgPoset, masks: Masks, k: int) -> Iterator[tuple[Masks, Masks]]:
    """All proper splits of a closed subset at level k.

    Yields pairs (A, B) of closed molecule subsets with A u B the input,
    A n B = the output k-boundary of A = the input k-boundary of B.

    A split assigns each maximal element of dimension > k (a high element)
    to one side.  Only assignments meeting two necessary conditions are
    tried; :func:`_split_candidates` lists their left sides, as subsets of
    the high elements, as the down-sets (see :func:`down_sets`) of the
    relation that these conditions define, which the poset's level-k table
    holds as ``Level.need``:

    - flow order: the left side is closed under predecessors in the maximal
      k-flow graph, self-loops ignored.  If a -> b with a in B and b in A,
      the shared k-element lies in the output k-frame of cl a, so it has a
      (+)-coface in cl a, which lies in B.  It also lies in cl b, hence in
      A n B = the input k-boundary of B, so it can have no (+)-coface in B;
      a contradiction.
    - same side: two high elements whose closures meet above dimension k
      lie on the same side, since A n B has dimension at most k.

    :func:`_membrane_splits` rebuilds the two sides each candidate forces, a
    proper pair that covers the input, so every split is the rebuild of one
    candidate; the rebuilds whose shared membrane is both sides' k-boundary
    and whose sides are both molecules are the splits, and only these two
    tests are made.  Candidates are tried in increasing order of their left
    side as a subset, and each split is checked only when the listing
    reaches it.  Nothing is memoised.
    """
    if not 0 <= k < P.masks_dim(masks):
        return
    for left, right in _membrane_splits(P, masks, k):
        inter = left & right
        if (
            P.boundary_masks(left, k, PLUS) == inter
            and P.boundary_masks(right, k, MINUS) == inter
            and mol_cert(P, left) is not None
            and mol_cert(P, right) is not None
        ):
            yield left, right


def _membrane_splits(P: OgPoset, masks: Masks, k: int) -> Iterator[tuple[Masks, Masks]]:
    """The two sides that each k-split candidate of a closed ``masks``
    forces: a proper pair that covers ``masks``.

    A candidate is the set of high elements (maximal, of dimension above k)
    on the left, as a subset; ``cla`` and ``clb`` are the closures of the
    two sides' high elements and ``low`` is the part of ``masks`` of
    dimension at most k.  The sides are ``cla`` and ``clb``, each with one
    shared membrane: the closure of ``cla & clb``, of the part of ``low``
    outside both closures, of δ⁺ at k of ``cla`` and of δ⁻ at k of
    ``clb``.  Whether the pair is a split is left to the caller:
    :func:`splits_masks` checks it exactly, :func:`candidate_closure_masks`
    keeps it as is.

    Every k-split (A, B) of ``masks`` with these high elements on the left
    is this pair, so every split is the rebuild of one candidate.  Let
    M = A n B, the output k-boundary of A and the input k-boundary of B, of
    dimension at most k.  An element of A above dimension k lies under a
    high element; not under a right one, or it would be in ``clb``, so in
    B and in M.  So the (k+1)-cells of A are those of ``cla``, and those of
    B those of ``clb``.

    - The membrane lies in M.  δ⁺ at k of ``cla`` lies in δ⁺ at k of A, and
      δ⁻ at k of ``clb`` in δ⁻ at k of B.  An element of ``low`` outside
      both closures lies under a maximal element of A or B of dimension at
      most k, which generates that side's k-boundary.  And ``cla & clb``
      lies in A n B.
    - M lies in the membrane.  M is the closure of δ⁺ at k of A and of the
      maximal elements of A below dimension k.  Such a generator in ``cla``
      is a k-cell of δ⁺ at k of ``cla``; one outside both closures is in
      ``low``.  A k-cell of δ⁺ at k of A in ``clb`` is a k-cell of the
      input k-boundary of B, so it is in δ⁻ at k of B and of ``clb``.  A
      maximal element of A below dimension k in ``clb`` is under a right
      high element, so not maximal in B; it lies under a k-cell of δ⁻ at k
      of B, in M and so in A, against its maximality in A.

    So adding both sides' frames to the membrane adds nothing: each side's
    frame at k is its closure's, together with k-cells of the membrane.

    The pair needs no test for being proper and covering:

    - Cover: an element of ``masks`` above dimension k lies under a maximal
      element of ``masks``, which is high, so it is in ``cla | clb``.  Every
      other element is in ``low``, and the membrane holds the part of
      ``low`` outside both closures.  The membrane is a closure of cells of
      the closed ``masks``, so neither side leaves ``masks``.
    - Proper: a candidate and its complement in ``high`` are nonempty.  A
      high element on the right is maximal in ``masks``, so it lies neither
      in ``cla`` nor below it, and not in the membrane either, whose
      elements have dimension at most k: two high elements whose closures
      meet above k are on the same side (the same-side rule of
      :func:`splits_masks`, kept by every candidate), so ``cla & clb`` lies
      in dimension at most k, as do ``low`` and the frames.  So the left
      side misses it, and likewise the right side misses every high element
      on the left.
    """
    high = P.maximal_masks(masks) & ~P.upto(k)
    if high & (high - 1) == 0:
        return  # no candidate, and no level table to build
    low = masks & P.upto(k)
    for left_high in _split_candidates(P, high, k):
        cla, clb = P.closure_masks(left_high), P.closure_masks(high & ~left_high)
        membrane = P.closure_masks(
            cla & clb | low & ~(cla | clb)
            | P.delta_masks(cla, k, PLUS) | P.delta_masks(clb, k, MINUS)
        )
        yield cla | membrane, clb | membrane


def _split_candidates(P: OgPoset, high: Masks, k: int) -> Iterator[Masks]:
    """Left sides worth trying for a k-split, as subsets of ``high``.

    These are the nonempty proper down-sets of the flow-predecessor and
    same-side relations (``Level.need`` cut to ``high``), lazily in
    increasing order (see :func:`down_sets`); a ``high`` of at most one
    element has none.
    """
    rows = closed_rows(P.level(k).need, high)
    return (left for left in down_sets(rows, high) if left and left != high)


def splits(U: Molecule, k: int) -> list[tuple[Closed, Closed]]:
    """All proper splits of U at level k, as pairs of closed subsets."""
    P = U.poset
    return [
        (Closed(P, a), Closed(P, b))
        for a, b in splits_masks(P, P.full_masks(), k)
    ]


def submolecules_masks(P: OgPoset, masks: Masks) -> dict[Masks, list]:
    """All submolecule subsets of a closed molecule subset, with witnesses.

    The fixpoint closes under proper split factors and under boundary
    operators (the factors of unital pastings).  Witnesses are lists of
    steps ("split", k, side) / ("boundary", k, alpha) leading from the root.
    """
    return _closure(P, masks, splits_masks)


def candidate_closure_masks(P: OgPoset, masks: Masks) -> dict[Masks, list]:
    """A superset of :func:`submolecules_masks`: the closure of ``masks``
    under boundary operators and under the :func:`_membrane_splits` of every
    split candidate, a proper covering pair, with no check that it is a
    split.

    Why it holds every submolecule is in :func:`dcx.flow.is_frame_acyclic`.
    The other members need not be molecules; their witnesses name the
    candidate steps that reached them.  Nothing is memoised, so the "mol"
    memo stays exact.
    """
    return _closure(P, masks, _membrane_splits)


def _closure(P: OgPoset, masks: Masks, split_lister) -> dict[Masks, list]:
    """The closure of ``masks`` under boundaries and the pairs that
    ``split_lister(P, subset, k)`` yields for each level k below the subset's
    dimension, each member with the steps that first reached it."""
    found: dict[Masks, list] = {masks: []}
    queue = [masks]
    while queue:
        cur = queue.pop()
        wit = found[cur]
        d = P.masks_dim(cur)
        for k in range(d):
            for alpha in (MINUS, PLUS):
                b = P.boundary_masks(cur, k, alpha)
                if b not in found:
                    found[b] = wit + [("boundary", k, alpha)]
                    queue.append(b)
            for a, b in split_lister(P, cur, k):
                if a not in found:
                    found[a] = wit + [("split", k, 0)]
                    queue.append(a)
                if b not in found:
                    found[b] = wit + [("split", k, 1)]
                    queue.append(b)
    return found


class Submolecule:
    """A closed subset together with a decomposition path witnessing it."""

    __slots__ = ("subset", "witness")

    def __init__(self, subset: Closed, witness: list):
        self.subset = subset
        self.witness = witness

    def __repr__(self):
        return f"Submolecule({self.subset.elements()}, via {self.witness})"


def submolecules(U: Molecule) -> list[Submolecule]:
    P = U.poset
    table = submolecules_masks(P, P.full_masks())
    order = sorted(table, key=P.masks_by_dim)
    return [Submolecule(Closed(P, m), table[m]) for m in order]


def factors_through_atom(U: Molecule, V: Closed) -> bool:
    """True iff V is contained in the closure of a single element of U."""
    P = U.poset
    top = P.maximal_masks(P.full_masks())
    return any(V.masks & ~P.cl_el[p] == 0 for p in _bits(top))


def molecule_iso(U: Molecule, V: Molecule) -> Optional[OgIso]:
    """The unique isomorphism between two molecules, or None.

    Read off the canonical records of the two posets
    (:func:`~dcx.ogposet.isomorphisms`).  Raises
    AmbiguityError if two distinct isomorphisms exist, which would signal an
    invalid certificate or a library bug.
    """
    return unique_iso(U.poset, V.poset)
