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
    NotParallelError,
    NotRoundError,
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
    _popcount,
    find_iso,
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
    return Molecule(OgPoset((1,), [[]], regular=True, _checked=True), POINT_CERT)


def arrow() -> Molecule:
    return atom(point(), point())


def boundary_glue(
    P: OgPoset, Q: OgPoset, k: int, p_side: str, q_side: str
) -> Optional[dict[El, El]]:
    """Match the ``q_side`` k-boundary of Q with the ``p_side`` k-boundary of P.

    Returns the isomorphism as a map from elements of Q to elements of P,
    or None when the two boundaries are not isomorphic.
    """
    BP, p_amb = P.extract(P.boundary_masks(P.full_masks(), k, p_side))
    BQ, q_amb = Q.extract(Q.boundary_masks(Q.full_masks(), k, q_side))
    iso = find_iso(BP, BQ)
    if iso is None:
        return None
    return {q_amb[iso[el]]: p_amb[el] for el in BP.elements()}


def pushout(P: OgPoset, Q: OgPoset, glue: dict[El, El]):
    """Glue Q onto P, identifying each key of ``glue`` with its value.

    Elements of P keep their indices; the unglued elements of Q follow them
    in each dimension, in order.  Returns ``(counts, faces, map_p, map_q)``
    with the face data as lists, so that callers can add elements on top.
    """
    nd = max(len(P.counts), len(Q.counts))
    counts = list(P.counts) + [0] * (nd - len(P.counts))
    map_p = {el: el for el in P.elements()}
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
    return counts, faces, map_p, map_q


def paste_posets(P: OgPoset, Q: OgPoset, k: int):
    """Pushout of two posets along the unique iso of their k-boundaries.

    Returns ``(W, map_p, map_q)``; raises BoundaryMismatchError when the
    output k-boundary of P is not isomorphic to the input k-boundary of Q.
    """
    if k < 0:
        raise BoundaryMismatchError("pasting level must be >= 0")
    glue = boundary_glue(P, Q, k, PLUS, MINUS)
    if glue is None:
        raise BoundaryMismatchError(
            f"output {k}-boundary of the left factor does not match the "
            f"input {k}-boundary of the right factor"
        )
    counts, faces, map_p, map_q = pushout(P, Q, glue)
    return OgPoset(counts, faces, regular=True), map_p, map_q


def push_labels(map_l: dict, left: dict, map_r: dict, right: dict) -> Optional[dict]:
    """Carry two labellings along the maps of a pushout.

    Returns the labelling of the pushout, or None when two glued elements
    carry different labels.
    """
    out = {map_l[el]: label for el, label in left.items()}
    for el, label in right.items():
        if out.setdefault(map_r[el], label) != label:
            return None
    return out


def paste_with_maps(U: Molecule, V: Molecule, k: int):
    """Pushout of U and V along the unique iso of their k-boundaries.

    Returns ``(W, map_u, map_v)`` where the maps send elements of U and V to
    elements of W.
    """
    W, map_u, map_v = paste_posets(U.poset, V.poset, k)
    return Molecule(W, ("paste", k, U.cert, V.cert)), map_u, map_v


def paste(U: Molecule, V: Molecule, k: int) -> Molecule:
    """The pasting of U and V along their k-boundary."""
    return paste_with_maps(U, V, k)[0]


def atom_with_maps(U: Molecule, V: Molecule):
    """The atom with input U and output V, with the inclusion maps of U and V."""
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
    counts, faces, map_u, map_v = pushout(U.poset, V.poset, glue)
    top_minus = tuple(range(U.poset.counts[k]))
    top_plus = tuple(sorted(map_v[(k, i)][1] for i in range(V.poset.counts[k])))
    counts.append(1)
    faces.append([(top_minus, top_plus)])
    W = OgPoset(counts, faces, regular=True)
    return Molecule(W, ("atom", U.cert, V.cert)), map_u, map_v


def atom(U: Molecule, V: Molecule) -> Molecule:
    """The unique (k+1)-atom with input boundary U and output boundary V."""
    return atom_with_maps(U, V)[0]


_globes: dict[int, Molecule] = {}


def globe(k: int) -> Molecule:
    """The k-globe: the point for k = 0, otherwise an atom on two (k-1)-globes."""
    if k not in _globes:
        _globes[k] = point() if k == 0 else atom(globe(k - 1), globe(k - 1))
    return _globes[k]


def path(k: int) -> Molecule:
    """The 0-composite of k arrows (the point when k = 0)."""
    out = point() if k == 0 else arrow()
    for _ in range(k - 1):
        out = paste(out, arrow(), 0)
    return out


def suspension_with_maps(U: Molecule):
    """Suspension: two new poles, every element shifted one dimension up.

    Returns ``(W, el_map, poles)`` where ``el_map`` sends an element of U to
    its shifted copy and ``poles`` is the pair (north-input, north-output).
    """
    nd = len(U.poset.counts) + 1
    counts = [2] + list(U.poset.counts)
    faces = [[] for _ in range(nd)]
    el_map = {(d, i): (d + 1, i) for d, i in U.poset.elements()}
    if nd > 1:
        faces[1] = [((0,), (1,)) for _ in range(U.poset.counts[0])]
    for d in range(1, len(U.poset.counts)):
        faces[d + 1] = list(U.poset.faces[d])
    W = OgPoset(counts, faces, regular=True)

    def sus_cert(c: Cert) -> Cert:
        if c[0] == "point":
            return ARROW_CERT
        if c[0] == "atom":
            return ("atom", sus_cert(c[1]), sus_cert(c[2]))
        return ("paste", c[1] + 1, sus_cert(c[2]), sus_cert(c[3]))

    return Molecule(W, sus_cert(U.cert)), el_map, ((0, 0), (0, 1))


def suspension(U: Molecule) -> Molecule:
    return suspension_with_maps(U)[0]


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
    W = OgPoset(counts, faces, regular=True)
    return Molecule(W), map_u, map_v, map_pair


def join(U: Molecule, V: Molecule) -> Molecule:
    return join_with_maps(U, V)[0]


def oriental_with_labels(n: int):
    """The oriented n-simplex with its elements labelled by vertex subsets.

    Returns ``(Molecule, labels)`` with ``labels`` a dict from frozensets of
    vertices to elements.
    """
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
    d = P.masks_dim(masks)
    for k in range(d):
        lower = [
            P.boundary_masks(masks, k - 1, MINUS),
            P.boundary_masks(masks, k - 1, PLUS),
        ]
        union = tuple(a | b for a, b in zip(*lower))
        inter = tuple(
            a & b
            for a, b in zip(
                P.boundary_masks(masks, k, MINUS),
                P.boundary_masks(masks, k, PLUS),
            )
        )
        if union != inter:
            return False
    return True


def is_round(U: Molecule) -> bool:
    """Round: lower boundaries collapse onto intersections of top boundaries."""
    return is_round_masks(U.poset, U.poset.full_masks())


# -- recognition --------------------------------------------------------------


def _memo(P: OgPoset, name: str) -> dict:
    return P._memo.setdefault(name, {})


def _path_cert(length: int) -> Cert:
    if length == 1:
        return ARROW_CERT
    return ("paste", 0, ARROW_CERT, _path_cert(length - 1))


def _path_edge_order(P: OgPoset, masks: Masks) -> Optional[list[int]]:
    """Edge indices of a 1-dimensional subset in source-to-target order, or
    None unless the subset is a directed path."""
    succ: dict[int, int] = {}
    has_pred: set[int] = set()
    for e in _bits(masks[1]):
        mn, pl = P.faces[1][e]
        if len(mn) != 1 or len(pl) != 1 or mn[0] in succ or pl[0] in has_pred:
            return None
        succ[mn[0]] = e
        has_pred.add(pl[0])
    starts = [v for v in _bits(masks[0]) if v not in has_pred]
    if len(starts) != 1 or len(starts) + len(has_pred) != _popcount(masks[0]):
        return None
    order = []
    v = starts[0]
    while v in succ:
        e = succ[v]
        order.append(e)
        v = P.faces[1][e][1][0]
    # with one source and every target inside, a full walk is the whole subset
    return order if len(order) == len(succ) else None


def mol_cert(P: OgPoset, masks: Masks) -> Optional[Cert]:
    """Certificate witnessing that a closed subset is a molecule, or None."""
    memo = _memo(P, "mol")
    if masks in memo:
        return memo[masks]
    memo[masks] = result = _mol_cert_compute(P, masks)
    return result


def _mol_cert_compute(P: OgPoset, masks: Masks) -> Optional[Cert]:
    d = P.masks_dim(masks)
    if d < 0:
        return None
    if d == 0:
        return POINT_CERT if P.masks_size(masks) == 1 else None
    if not P.connected_masks(masks):
        return None
    if d == 1:
        order = _path_edge_order(P, masks)
        return None if order is None else _path_cert(len(order))
    top = P.maximal_masks(masks)
    if P.masks_size(top) == 1:
        return _atom_cert(P, masks)
    for k in range(d - 1, -1, -1):
        for left, right in splits_masks(P, masks, k):
            cl = mol_cert(P, left)
            if cl is None:
                continue
            cr = mol_cert(P, right)
            if cr is None:
                continue
            return ("paste", k, cl, cr)
    return None


def _atom_cert(P: OgPoset, masks: Masks) -> Optional[Cert]:
    d = P.masks_dim(masks)
    um = P.boundary_masks(masks, d - 1, MINUS)
    up = P.boundary_masks(masks, d - 1, PLUS)
    top = P.maximal_masks(masks)
    body = tuple(a | b for a, b in zip(um, up))
    rest = tuple(m & ~t for m, t in zip(masks, top))
    if body != rest:
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
    """Rebuild a molecule from its certificate."""
    if cert[0] == "point":
        return point()
    if cert[0] == "atom":
        return atom(replay(cert[1]), replay(cert[2]))
    if cert[0] == "paste":
        return paste(replay(cert[2]), replay(cert[3]), cert[1])
    raise ValueError(f"unknown certificate head {cert[0]!r}")


# -- splits and submolecules ---------------------------------------------------


def splits_masks(P: OgPoset, masks: Masks, k: int) -> Iterator[tuple[Masks, Masks]]:
    """All proper splits of a closed subset at level k.

    Yields pairs (A, B) of closed molecule subsets with A u B the input,
    A n B = the output k-boundary of A = the input k-boundary of B.

    A split assigns each maximal element of dimension > k (a high element)
    to one side.  Only assignments meeting two necessary conditions are
    tried (see :func:`_split_candidates`):

    - flow order: the left side is closed under predecessors in the maximal
      k-flow graph, self-loops ignored.  If a -> b with a in B and b in A,
      the shared k-element lies in the output k-frame of cl a, so it has a
      (+)-coface in cl a, which lies in B.  It also lies in cl b, hence in
      A n B = the input k-boundary of B, so it can have no (+)-coface in B;
      a contradiction.
    - same side: two high elements whose closures meet above dimension k
      lie on the same side, since A n B has dimension at most k.

    Given the assignment, the shared membrane is forced: it grows from the
    elements outside both closures (plus the closures' intersection) by
    adding the level-k output frame of A and input frame of B until stable.
    The parts of both sides above level k never change during the growth,
    so the frame tests are stable and the fixpoint reconstructs the unique
    candidate split, which is then checked exactly.  Candidates are tried
    in increasing order of their left-side bitmask.
    """
    d = P.masks_dim(masks)
    if k < 0 or k >= d:
        return
    memo = _memo(P, "splits")
    mkey = (masks, k)
    if mkey in memo:
        yield from memo[mkey]
        return
    out = []
    if d == 1 and k == 0:
        # a 1-molecule is a directed path: splits are the interior cuts
        if mol_cert(P, masks) is not None:
            order = _path_edge_order(P, masks)
            for cut in range(1, len(order)):
                left = P.closure_masks(P.el_masks((1, e) for e in order[:cut]))
                right = P.closure_masks(P.el_masks((1, e) for e in order[cut:]))
                out.append((left, right))
    else:
        mx = P.maximal_masks(masks)
        high = [el for el in P.masks_els(mx) if el[0] > k]
        nd = len(P.counts)
        for bits in _split_candidates(P, high, k):
            cla = [0] * nd
            clb = [0] * nd
            for pos, (hd, hi) in enumerate(high):
                target = cla if bits >> pos & 1 else clb
                cl = P.cl_el[hd][hi]
                for e in range(len(cl)):
                    target[e] |= cl[e]
            seed = [a & b for a, b in zip(cla, clb)]
            for e in range(min(k + 1, nd)):
                seed[e] |= masks[e] & ~(cla[e] | clb[e])
            membrane = P.closure_masks(tuple(seed))
            while True:
                side_a = tuple(a | m for a, m in zip(cla, membrane))
                side_b = tuple(b | m for b, m in zip(clb, membrane))
                grow = [0] * nd
                grow[k] = P.delta_masks(side_a, k, PLUS) | P.delta_masks(
                    side_b, k, MINUS
                )
                grow_cl = P.closure_masks(tuple(grow))
                if all(g & ~m == 0 for g, m in zip(grow_cl, membrane)):
                    break
                membrane = tuple(m | g for m, g in zip(membrane, grow_cl))
            left, right = side_a, side_b
            if left == masks or right == masks:
                continue
            if tuple(l | r for l, r in zip(left, right)) != masks:
                continue
            inter = tuple(l & r for l, r in zip(left, right))
            if P.boundary_masks(left, k, PLUS) != inter:
                continue
            if P.boundary_masks(right, k, MINUS) != inter:
                continue
            if mol_cert(P, left) is None or mol_cert(P, right) is None:
                continue
            out.append((left, right))
    memo[mkey] = out
    yield from out


def _split_candidates(P: OgPoset, high: list[El], k: int) -> list[int]:
    """Left sides worth trying for a k-split, as bitmasks over ``high``.

    These are the nonempty proper subsets closed under flow predecessors and
    under the same-side relation, in increasing order.
    """
    n = len(high)
    nd = len(P.counts)
    cl = [P.cl_el[d][i] for d, i in high]
    # need[p]: positions that must be on the left whenever p is
    need = [1 << p for p in range(n)]
    for a, succ in enumerate(P.flow_masks(high, k)):
        for b in _bits(succ & ~(1 << a)):
            need[b] |= 1 << a
    for a in range(n):
        for b in range(a + 1, n):
            if any(cl[a][e] & cl[b][e] for e in range(k + 1, nd)):
                need[a] |= 1 << b
                need[b] |= 1 << a
    changed = True
    while changed:
        changed = False
        for p in range(n):
            acc = need[p]
            for q in _bits(need[p]):
                acc |= need[q]
            if acc != need[p]:
                need[p] = acc
                changed = True
    # up[p]: positions that must be on the right whenever p is
    up = [0] * n
    for p in range(n):
        for q in _bits(need[p]):
            up[q] |= 1 << p

    out: list[int] = []

    def rec(pos: int, left: int, right: int) -> None:
        # Positions above pos are decided; decide pos, right side first, so
        # that the bitmasks come out in increasing order.  Both sides stay
        # closed (left under need, right under up), so an undecided position
        # can go either way and every branch ends in a candidate.
        while pos >= 0 and (left | right) >> pos & 1:
            pos -= 1
        if pos < 0:
            out.append(left)
            return
        rec(pos - 1, left, right | up[pos])
        rec(pos - 1, left | need[pos], right)

    rec(n - 1, 0, 0)
    full = (1 << n) - 1
    return [bits for bits in out if bits and bits != full]


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
    memo = _memo(P, "submol")
    if masks in memo:
        return memo[masks]
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
            for idx, (a, b) in enumerate(splits_masks(P, cur, k)):
                if a not in found:
                    found[a] = wit + [("split", k, 0)]
                    queue.append(a)
                if b not in found:
                    found[b] = wit + [("split", k, 1)]
                    queue.append(b)
    memo[masks] = found
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
    return [Submolecule(Closed(P, m), w) for m, w in sorted(table.items())]


def factors_through_atom(U: Molecule, V: Closed) -> bool:
    """True iff V is contained in the closure of a single element of U."""
    P = U.poset
    top = P.maximal_masks(P.full_masks())
    for d in range(len(P.counts) - 1, -1, -1):
        for i in _bits(top[d]):
            cl = P.cl_el[d][i]
            if all(v & ~c == 0 for v, c in zip(V.masks, cl)):
                return True
    return False


def molecule_iso(U: Molecule, V: Molecule) -> Optional[OgIso]:
    """The unique isomorphism between two molecules, or None.

    Raises AmbiguityError if two distinct isomorphisms exist, which would
    signal an invalid certificate or a library bug.
    """
    return unique_iso(U.poset, V.poset)
