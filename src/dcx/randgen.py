"""Random molecule fixtures built from valid paste and atom steps."""
from __future__ import annotations

import random

from .errors import DcxError
from .molecule import Molecule, arrow, atom, globe, paste, path, point


def random_molecules(
    count: int,
    seed: int = 0,
    max_elements: int = 25,
    max_dim: int = 3,
    max_steps: int = 100000,
) -> list[Molecule]:
    """Distinct molecules grown by random valid paste/atom steps.

    Starting from points, arrows and low globes, each step pastes two pool
    members along a random level or forms an atom on a parallel round pair.
    Results exceeding the element or dimension budget are discarded.
    """
    rng = random.Random(seed)
    pool: list[Molecule] = [point(), arrow(), path(2), globe(2)]
    if max_dim >= 3:
        pool.append(globe(3))
    out: dict[bytes, Molecule] = {m.key: m for m in pool if m.size() <= max_elements}
    steps = 0
    while len(out) < count and steps < max_steps:
        steps += 1
        pasting = rng.random() < 0.7
        U = rng.choice(pool)
        V = rng.choice(pool)
        if pasting:
            k = rng.randrange(0, min(U.dim, V.dim) + 1) if min(U.dim, V.dim) >= 0 else 0
        elif U.dim != V.dim or U.dim >= max_dim:
            continue
        try:
            made = paste(U, V, k) if pasting else atom(U, V)
        except DcxError:
            continue
        if made.size() > max_elements or made.dim > max_dim:
            continue
        if made.key not in out:
            out[made.key] = made
            pool.append(made)
    if len(out) < count:
        raise DcxError(f"only generated {len(out)} molecules in {max_steps} steps")
    return sorted(out.values(), key=lambda m: m.key)[:count]
