"""Input transforms and oracles that do not use the code being timed.

Everything here works on plain data: ogposet/1 face tables, semi-simplicial
face lists and up-set bitmasks.  The seed of a run picks a relabelling of
each input within every dimension, so different seeds give isomorphic
inputs in different element orders: the searches visit candidates in
another order, while the size of each problem stays fixed.
"""
from __future__ import annotations

import math
import random


def permutations(counts, rng: random.Random) -> list[list[int]]:
    """One random permutation per dimension, as ``perm[d][old] = new``."""
    return [rng.sample(range(c), c) for c in counts]


def relabel_faces(faces: list, rng: random.Random) -> list:
    """Relabel an ogposet/1 face table by random per-dimension permutations."""
    perms = permutations([len(level) for level in faces], rng)
    out = []
    for d, level in enumerate(faces):
        new: list = [None] * len(level)
        for old, entry in enumerate(level):
            if d == 0:
                new[perms[0][old]] = {}
            else:
                new[perms[d][old]] = {
                    side: sorted(perms[d - 1][j] for j in entry[side]) for side in ("-", "+")
                }
        out.append(new)
    return out


def relabel_ssset(faces: list, rng: random.Random) -> tuple[list, list[list[int]]]:
    """Relabel simplices of a semi-simplicial face list ``[n0, level1, ...]``.

    Returns the new face list and ``inverse[d][new] = old``.
    """
    counts = [faces[0]] + [len(level) for level in faces[1:]]
    perms = permutations(counts, rng)
    out: list = [faces[0]]
    for d in range(1, len(faces)):
        level: list = [None] * counts[d]
        for old, row in enumerate(faces[d]):
            level[perms[d][old]] = [perms[d - 1][j] for j in row]
        out.append(level)
    inverse = []
    for perm in perms:
        inv = [0] * len(perm)
        for old, new in enumerate(perm):
            inv[new] = old
        inverse.append(inv)
    return out, inverse


def properties(faces: list) -> dict:
    """Element count, dimension and maximal elements above each level.

    ``high_max[k]`` is the number of maximal elements of dimension > k, for
    k = 0 .. dim - 1: the count whose bipartitions a level-k split search
    ranges over.
    """
    counts = [len(level) for level in faces]
    covered = [set() for _ in counts]
    for d in range(1, len(faces)):
        for entry in faces[d]:
            covered[d - 1].update(entry["-"])
            covered[d - 1].update(entry["+"])
    maximal = [c - len(covered[d]) for d, c in enumerate(counts)]
    dim = len(counts) - 1
    return {
        "elements": sum(counts),
        "dim": dim,
        "counts": counts,
        "maximal": sum(maximal),
        "high_max": [sum(maximal[k + 1:]) for k in range(dim)],
    }


def hasse_acyclic(faces: list) -> bool:
    """Acyclicity of the oriented Hasse diagram.

    Edges run from each input face to its element and from each element to
    its output faces.
    """
    succ: dict[tuple[int, int], list] = {}
    for d in range(len(faces)):
        for i in range(len(faces[d])):
            succ.setdefault((d, i), [])
    for d in range(1, len(faces)):
        for i, entry in enumerate(faces[d]):
            for j in entry["-"]:
                succ[(d - 1, j)].append((d, i))
            for j in entry["+"]:
                succ[(d, i)].append((d - 1, j))
    state = dict.fromkeys(succ, 0)  # 0 new, 1 on the stack, 2 done
    for root in succ:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if state[nxt] == 1:
                    return False
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                state[node] = 2
                stack.pop()
    return True


def expected_frame_acyclic(props: dict, faces: list) -> bool:
    """The answer ``check frame-acyclic`` must give, from a sound proof.

    Molecules of dimension at most 3 are frame-acyclic, and so is every
    molecule whose oriented Hasse diagram is acyclic.  Inputs covered by
    neither proof have no known answer and are refused.
    """
    if props["dim"] <= 3 or hasse_acyclic(faces):
        return True
    raise ValueError("no independent proof of frame-acyclicity for this input")


def order_summary(n: int, up_mask) -> dict:
    """Cover count, bottom and top of a finite order given strict up-sets."""
    ups = [up_mask(i) for i in range(n)]
    downs = [0] * n
    for i, row in enumerate(ups):
        m = row
        while m:
            low = m & -m
            downs[low.bit_length() - 1] |= 1 << i
            m ^= low
    covers = 0
    for i, row in enumerate(ups):
        m = row
        while m:
            low = m & -m
            if not row & downs[low.bit_length() - 1]:
                covers += 1
            m ^= low
    everyone = (1 << n) - 1
    return {
        "elements": n,
        "covers": covers,
        "bottom": any(ups[i] | 1 << i == everyone for i in range(n)),
        "top": any(downs[i] | 1 << i == everyone for i in range(n)),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 1``."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]
