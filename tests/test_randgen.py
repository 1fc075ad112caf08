"""Random molecule fixtures: distinct, bounded, sorted and seeded."""
import hashlib

import pytest

from dcx import DcxError, is_molecule, random_molecules


@pytest.mark.parametrize(
    "count, seed, max_elements, max_dim", [(30, 0, 25, 3), (25, 7, 12, 2), (20, 3, 18, 4)]
)
def test_members_are_distinct_bounded_and_sorted(count, seed, max_elements, max_dim):
    found = random_molecules(count, seed=seed, max_elements=max_elements, max_dim=max_dim)
    keys = [m.key for m in found]
    assert len(found) == count
    assert len(set(keys)) == count
    assert keys == sorted(keys)
    for m in found:
        assert m.size() <= max_elements and m.dim <= max_dim, m
    assert all(is_molecule(m.poset) is not None for m in found[:10])


def test_the_seed_decides_the_corpus():
    keys = [m.key for m in random_molecules(30, seed=11)]
    assert keys == [m.key for m in random_molecules(30, seed=11)]
    assert keys != [m.key for m in random_molecules(30, seed=12)]


@pytest.mark.parametrize("max_steps", [0, 3])
def test_a_starving_step_budget_raises(max_steps):
    with pytest.raises(DcxError, match=f"only generated [0-9]+ molecules in {max_steps} steps"):
        random_molecules(50, seed=0, max_steps=max_steps)


def test_the_check_bench_corpus_is_pinned():
    """The corpus of the ``check`` bench workload, by a digest of its keys
    and certificates: a change to what a step draws, or in which order,
    shows here."""
    mols = random_molecules(200, 20260809, max_elements=22)
    blob = b"".join(m.key for m in mols) + repr([m.cert for m in mols]).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "2bb3e1be8c5369e6"
