import itertools
from typing import Optional

import pytest

from dcx import (
    Molecule,
    OgIso,
    OgPoset,
    PreconditionError,
    atom,
    globe,
    is_round,
    oriental,
    paste,
    path,
    point,
    random_molecules,
    suspension,
    theta_from_tree,
    validate,
)
from dcx.ogposet import _offsets, _refine

CORPUS_SEED = 20260809
CORPUS_SIZE = 200


@pytest.fixture(scope="session")
def corpus():
    """Random molecules shared by the property and acceptance tests."""
    return random_molecules(CORPUS_SIZE, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def round_corpus(corpus):
    """At least 100 distinct round molecules."""
    pool = {}

    def add(m):
        if is_round(m) and m.key not in pool:
            pool[m.key] = m

    for m in corpus:
        add(m)
    for k in range(13):
        add(path(k))
        add(suspension(path(k)))
        add(suspension(suspension(path(min(k, 6)))))
    for k in range(5):
        add(globe(k))
    for n in range(6):
        add(oriental(n))
    lenses = {}
    for a in range(1, 7):
        for b in range(1, 7):
            lens = atom(path(a), path(b))
            lenses[(a, b)] = lens
            add(lens)
            if a + b <= 7:
                add(suspension(lens))
    for a in range(1, 4):
        for b in range(1, 4):
            add(atom(lenses[(a, b)], lenses[(a, b)]))
    tower = globe(2)
    for _ in range(6):
        tower = paste(tower, globe(2), 1)
        add(tower)
    assert len(pool) >= 100
    return list(pool.values())


@pytest.fixture(scope="session")
def small_corpus(corpus):
    return [m for m in corpus if m.size() <= 16][:60]


@pytest.fixture
def horiz():
    """Two 2-globes pasted side by side at level 0."""
    return paste(globe(2), globe(2), 0)


@pytest.fixture
def vert():
    """Two 2-globes stacked at level 1."""
    return paste(globe(2), globe(2), 1)


@pytest.fixture
def sphere_boundary():
    """The boundary of the 2-simplex with the top cell removed."""
    return validate([3, [([0], [1]), ([1], [2]), ([0], [2])]])


@pytest.fixture
def parallel_pair():
    """Two parallel edges between the same endpoints."""
    return validate([2, [([0], [1]), ([0], [1])]])


def assert_regular(P):
    """Every element of positive dimension of P has nonempty input and
    output sides."""
    empty = [
        (d, i)
        for d in range(1, len(P.counts))
        for i, (mn, pl) in enumerate(P.faces[d])
        if not mn or not pl
    ]
    assert not empty, empty


def checked_poset(counts, faces):
    """The poset of a face table given as counts and faces (``faces[0]``
    unread), built by ``validate`` and checked regular."""
    P = validate([counts[0], *faces[1:]])
    assert_regular(P)
    return P


def is_oriented_thin(P) -> bool:
    """Oriented thinness, read from ``P.faces`` alone: for each element x of
    dimension at least 2 and each z two dimensions below it, exactly two
    elements y lie between them, and the products of the signs (input -1,
    output +1) along the two chains z < y < x are opposite.  A necessary
    condition for a molecule, whose face poset is that of a regular CW
    ball; recognition does not use it."""
    for d in range(2, len(P.faces)):
        for x_sides in P.faces[d]:
            chains: dict[int, list[int]] = {}
            for y_sign, ys in zip((-1, 1), x_sides):
                for y in ys:
                    for z_sign, zs in zip((-1, 1), P.faces[d - 1][y]):
                        for z in zs:
                            chains.setdefault(z, []).append(y_sign * z_sign)
            if any(sorted(signs) != [-1, 1] for signs in chains.values()):
                return False
    return True


def compositions(k):
    """All compositions of k, as tuples of positive integers."""
    if k == 0:
        return [()]
    out = []
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            out.append((first,) + rest)
    return out


def composition_refines(fine, coarse):
    """fine refines coarse by consecutive grouping (sums)."""
    i = 0
    for part in coarse:
        acc = 0
        while i < len(fine) and acc < part:
            acc += fine[i]
            i += 1
        if acc != part:
            return False
    return i == len(fine)


def posets_isomorphic(P, Q):
    """True iff the finite posets P and Q are isomorphic: a backtracking
    search over bijections that keep (down-set size, up-set size) and
    respect the order both ways."""
    if P.n != Q.n:
        return False
    inv_p = [(P.down_mask(i).bit_count(), P.up_mask(i).bit_count()) for i in range(P.n)]
    inv_q = [(Q.down_mask(j).bit_count(), Q.up_mask(j).bit_count()) for j in range(Q.n)]
    if sorted(inv_p) != sorted(inv_q):
        return False
    cand = {i: [j for j in range(Q.n) if inv_q[j] == inv_p[i]] for i in range(P.n)}
    order = sorted(range(P.n), key=lambda i: len(cand[i]))
    mapping: dict[int, int] = {}

    def rec(pos: int) -> bool:
        if pos == P.n:
            return True
        i = order[pos]
        for j in cand[i]:
            if j in mapping.values():
                continue
            if all(
                P.leq(i, i2) == Q.leq(j, j2) and P.leq(i2, i) == Q.leq(j2, j)
                for i2, j2 in mapping.items()
            ):
                mapping[i] = j
                if rec(pos + 1):
                    return True
                del mapping[i]
        return False

    return rec(0)


def _level_sets(mol):
    levels = range(max(mol.dim, 0))
    return [set(c) for r in range(len(levels) + 1) for c in itertools.combinations(levels, r)]


def differential_inputs(corpus, horiz, vert):
    """(molecule, level set) pairs for comparing Sd against its oracles."""
    for k in range(1, 8):
        yield path(k), {0}
    for mol in (horiz, vert):
        for S in ({0}, {1}, {0, 1}):
            yield mol, S
    fixed = [theta_from_tree("(((),()),())")]
    fixed += [globe(k) for k in range(4)] + [oriental(k) for k in range(4)]
    for mol in fixed + [m for m in corpus if m.size() <= 14]:
        for S in _level_sets(mol):
            yield mol, S


# -- the isomorphism and canonical-form searches without automorphism pruning --
#
# The library reads isomorphisms off two canonical forms, and prunes its
# canonical search by the automorphisms it finds.  These are the searches it
# replaced: one lays the pair end to end and matches members across it, the
# other explores every leaf.  Tests that check canonical records against an
# isomorphism, and the canonical form itself, call these.


def oracle_search(tables: list[tuple], leaf) -> None:
    """Individualisation-refinement over one poset or a pair, with no
    pruning by automorphisms.

    Each poset is given by its face table, a pair ``(counts, faces)`` as
    :class:`OgPoset` holds them.  The posets are laid end to end: colours
    form one list indexed by position, the first poset's first, refined
    jointly from each element's dimension and numbers of faces and cofaces
    by side.  Each position's four neighbour lists are read off the face
    table, the cofaces in the same pass as the faces.  For a pair, a branch
    is pruned when some colour class holds different numbers of elements
    from each poset; one poset has nothing to balance.  When every class
    holds exactly one element of each poset, ``leaf(colors)`` is called,
    and the search stops once it returns True.  Otherwise the search
    branches on the lowest class with more than one element per poset: for
    one poset each member is individualised in turn, for a pair the
    smallest member from the first poset is matched with each member from
    the second.  A stable, balanced, discrete colouring of a pair matches
    neighbour colours, so it is an isomorphism, and each isomorphism
    survives exactly one branch.  Members are ordered by position, which is
    ``(dim, index)`` order.  Colours keep their order through refinement
    and individualisation, so a discrete colouring of one poset numbers its
    positions dimension by dimension.
    """
    nbrs, start = [], []
    base = 0
    for counts, faces in tables:
        offs = _offsets(counts)
        rows = [([], [], [], []) for _ in range(offs[-1])]
        for d in range(1, len(counts)):
            lo, hi = offs[d - 1], offs[d]
            for p, (mn, pl) in enumerate(faces[d], hi):
                row = rows[p]
                for j in mn:
                    row[0].append(base + lo + j)
                    rows[lo + j][2].append(base + p)
                for j in pl:
                    row[1].append(base + lo + j)
                    rows[lo + j][3].append(base + p)
        for d in range(len(counts)):
            start += [(d, *map(len, row)) for row in rows[offs[d] : offs[d + 1]]]
        nbrs += rows
        base += offs[-1]
    n, ways = sum(tables[0][0]), len(tables)

    def rec(colors) -> bool:
        # colours are ranks, so the classes are listed in colour order
        classes: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
        for q, c in enumerate(colors):
            classes[c].append(q)
        # one poset puts all of each class below n, so only a pair can be unbalanced
        if ways > 1 and any(ways * sum(q < n for q in ms) != len(ms) for ms in classes):
            return False
        target = next((ms for ms in classes if len(ms) > ways), None)
        if target is None:
            return leaf(colors)
        first = [q for q in target if q < n]
        if ways == 1:
            branches = [[x] for x in first]
        else:
            branches = [[first[0], y] for y in target if y >= n]
        for picked in branches:
            nxt = [2 * c for c in colors]
            for q in picked:
                nxt[q] -= 1
            if rec(_refine(nbrs, nxt)):
                return True
        return False

    rec(_refine(nbrs, start))


def oracle_isomorphisms(P: OgPoset, Q: OgPoset, limit: Optional[int] = None) -> list[OgIso]:
    """All orientation-preserving isomorphisms P -> Q (up to ``limit``), by
    the joint search of the pair, independent of the canonical forms.

    ``limit`` 0 gives ``[]`` without a search; a negative one raises
    PreconditionError.
    """
    if limit is not None and limit < 0:
        raise PreconditionError(f"limit must be at least 0, got {limit}")
    if P.counts != Q.counts or limit == 0:
        return []
    found: list[OgIso] = []
    n = P.size()

    def leaf(colors) -> bool:
        image = dict(zip(colors[n:], Q._els))
        found.append(OgIso(P, Q, {el: image[c] for el, c in zip(P._els, colors)}))
        return limit is not None and len(found) >= limit

    oracle_search([(P.counts, P.faces), (Q.counts, Q.faces)], leaf)
    return found


def oracle_find_iso(P: OgPoset, Q: OgPoset) -> Optional[OgIso]:
    """An orientation-preserving isomorphism found by the joint search, or None."""
    isos = oracle_isomorphisms(P, Q, limit=1)
    return isos[0] if isos else None


def oracle_canonical_form(counts: list[int], faces: list) -> tuple[bytes, list[int]]:
    """The canonical key of a face table and its positions in canonical
    order (see :meth:`OgPoset.canon_record`), from every leaf of the search.

    Every leaf of the search gives a certificate: the counts, then each
    dimension's face pairs listed in the leaf's order of its elements.  The
    key is the least certificate over all leaves, so every branch is
    explored.  On a poset with automorphisms refinement alone can leave
    classes it cannot split, and the leaf reached by individualising some
    member first depends on how the input was numbered; only the least
    over all of them is the same for every numbering.  The order is that
    of the best leaf, which lists the positions dimension by dimension.
    """
    if not counts:
        return b"()", []
    offs = _offsets(counts)
    best: list = [None, None]

    def leaf(colors) -> bool:
        # a discrete colouring numbers each dimension's positions consecutively
        at = [0] * len(colors)
        for p, c in enumerate(colors):
            at[c] = p
        cert = [tuple(counts)]
        for d in range(1, len(counts)):
            lo, hi = offs[d - 1], offs[d]
            rows = []
            for p in at[hi : offs[d + 1]]:
                mn, pl = faces[d][p - hi]
                rows.append(
                    (
                        tuple(sorted([colors[lo + j] - lo for j in mn])),
                        tuple(sorted([colors[lo + j] - lo for j in pl])),
                    )
                )
            cert.append(tuple(rows))
        key = repr(tuple(cert)).encode()
        if best[0] is None or key < best[0]:
            best[:] = key, at
        return False

    oracle_search([(counts, faces)], leaf)
    return best[0], best[1]
