import itertools

import pytest

from dcx import (
    Molecule,
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
