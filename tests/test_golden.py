"""Golden outputs of the command line and of the canonical-form search.

``tests/golden/manifest.json`` lists command lines of every ``dcx``
subcommand, each with the sha256 of its stdout and its exit code.  An
argument that starts with ``inputs/`` names a committed file under
``tests/golden/``: ogposet/1 molecules, ogposet/1 inputs that are only
checked (three posets that are not molecules and two Hasse-cyclic atoms),
ssset/1 simplices, their dcomplex/1 realisations, two dcomplex/1
documents that ``cx verify`` rejects, and five ogposet/1 molecules on which
only ``sd --levels S --report`` runs, at a level set S where their
subdivision posets do not dismantle.
``tests/golden/library.json`` holds one sha256 per section of a library
digest: canonical keys and relabels, full isomorphism sets (each listed
sorted) against relabelled copies, the keys of enumerated pasting
diagrams, and, for each committed ogposet/1 molecule, its submolecules with witnesses, their
certificates and their splits at every k, its pre-layerings at every k,
and its subdivision posets at every level set.  The subdivision section
does not depend on the order in which ``enumerate_sd`` lists elements: each
element is named by its set of images.

Tier-1 runs in-process every ``sd``, ``export --dot sd`` and ``check``
command, every command on the inputs of ``SLICE`` and the library digest.
The full set runs as a script, which prints one summary line:

    python3 tests/test_golden.py

A change to the library that must keep these outputs leaves the golden
files alone; one that changes them on purpose rewrites the inputs, the
manifest and the digest with

    python3 tests/test_golden.py --update
"""
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"
LIBRARY = GOLDEN / "library.json"

# the first molecules of the seeded test corpus with positive dimension and
# at most CORPUS_MAX_ELEMENTS elements are inputs too
CORPUS_TAKE = 12
CORPUS_MAX_ELEMENTS = 14

# tier-1 runs the commands that start with one of TIER1_COMMANDS on every
# input, and every command on the inputs of SLICE; commands reading no file
# run too
TIER1_COMMANDS = (("sd",), ("export", "--dot", "sd"), ("check",))
SLICE = (
    "path2", "globe2", "oriental2", "theta", "horiz", "corpus03", "delta2", "swapped", "misshaped",
    "stray",
)


def _resolve(arg: str) -> str:
    return str(GOLDEN / arg) if arg.startswith("inputs/") else arg


def _inputs(argv) -> list[str]:
    """The names of the input files a command line reads."""
    return [Path(arg).stem.split(".")[0] for arg in argv if arg.startswith("inputs/")]


def run_command(argv) -> tuple[str, int]:
    """The stdout text and exit code of one command line."""
    from dcx import cli  # imported late, after the script has put src/ on the path

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run([_resolve(arg) for arg in argv])
    return out.getvalue(), code


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _in_tier1(argv) -> bool:
    return any(tuple(argv[: len(c)]) == c for c in TIER1_COMMANDS) or all(
        name in SLICE for name in _inputs(argv)
    )


def _entries(tier1: bool) -> list[dict]:
    entries = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if tier1:
        entries = [e for e in entries if _in_tier1(e["argv"])]
    return entries


def _failures(entries) -> list[list[str]]:
    bad = []
    for entry in entries:
        text, code = run_command(entry["argv"])
        if (_digest(text), code) != (entry["stdout_sha256"], entry["exit"]):
            bad.append(entry["argv"])
    return bad


def test_golden_outputs_are_unchanged():
    entries = _entries(tier1=True)
    commands = {tuple(e["argv"][:2]) for e in entries}
    assert len(entries) > 200
    kinds = {("make", "paste"), ("flow", "theory"), ("cx", "molecules"), ("sd", "--report")}
    assert kinds <= commands
    assert _failures(entries) == []


def test_library_digest_is_unchanged(corpus):
    want = json.loads(LIBRARY.read_text(encoding="utf-8"))
    assert library_digest(corpus) == want


# -- library digest --------------------------------------------------------------


def _symmetric_posets():
    """Posets with many automorphisms: parallel arrows, isolated points,
    disjoint globes, unions of directed cycles, and seeded random posets of
    dimension at most 2.  Refinement alone does not tell a 4-cycle from two
    2-cycles, so their union has leaves with different certificates."""
    from dcx import validate

    for n in range(1, 6):
        yield validate([n])
        yield validate([2, [([0], [1])] * n])
    for lengths in ((4, 2, 2), (2, 4, 2)):
        arrows, start = [], 0
        for length in lengths:
            arrows += [([start + i], [start + (i + 1) % length]) for i in range(length)]
            start += length
        yield validate([start, arrows])
    yield validate([4, [([0], [1]), ([0], [1]), ([2], [3]), ([2], [3])], [([0], [1]), ([2], [3])]])
    rng = random.Random(7)
    for _ in range(60):
        faces = [rng.randint(1, 4)]
        for d in (1, 2):
            below = faces[0] if d == 1 else len(faces[1])
            level = []
            for _ in range(rng.randint(0, 4) if below else 0):
                sides = [rng.choice("-+ ") for _ in range(below)]
                level.append(tuple([j for j, s in enumerate(sides) if s == a] for a in "-+"))
            if not level:
                break
            faces.append(level)
        yield validate(faces)


def _relabelled(P, rng):
    """A copy of P with the indices of each dimension shuffled."""
    from dcx import validate

    perms = []
    for c in P.counts:
        perm = list(range(c))
        rng.shuffle(perm)
        perms.append(perm)
    raw = [P.counts[0]]
    for d in range(1, len(P.counts)):
        level = [None] * P.counts[d]
        for i, (mn, pl) in enumerate(P.faces[d]):
            level[perms[d][i]] = ([perms[d - 1][j] for j in mn], [perms[d - 1][j] for j in pl])
        raw.append(level)
    return validate(raw)


def library_digest(corpus) -> dict[str, str]:
    """One sha256 per section of the library outputs that rest on the
    canonical-form and isomorphism search, over the seeded test corpus and
    the golden inputs."""
    from dcx import enumerate_molecules, import_ssset, isomorphisms
    from dcx.dcomplex import SemiSimplicialSet

    posets = [mol.poset for _, mol in _molecules(corpus)] + [m.poset for m in corpus]
    posets += list(_symmetric_posets())
    canon, isos = [], []
    rng = random.Random(11)
    for P in posets:
        key, relabel = P.canonical()
        canon.append(repr((key, sorted(relabel.items()))))
        Q = _relabelled(P, rng)
        qkey, qrelabel = Q.canonical()
        found = sorted(sorted(iso.mapping.items()) for iso in isomorphisms(P, Q))
        isos.append(repr((qkey == key, sorted(qrelabel.items()), found)))
    diagrams = []
    for n, max_cells in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        X = import_ssset(SemiSimplicialSet.standard_simplex(n))
        diagrams.append(repr([d.key for d in enumerate_molecules(X, max_cells)]))
    return {
        "canonical": _digest("\n".join(canon)),
        "isomorphisms": _digest("\n".join(isos)),
        "enumerate_molecules": _digest("\n".join(diagrams)),
        **_input_digest(),
    }


def _input_digest() -> dict[str, str]:
    """Sections over the committed ogposet/1 inputs, each read from its file
    and recognised afresh: submolecules with witnesses, the certificate and
    the splits at every k of each submolecule, pre-layerings at every k, and
    the subdivision poset at every level set."""
    from dcx import Molecule, enumerate_sd, is_molecule, pre_layerings, submolecules
    from dcx.molecule import mol_cert, splits_masks
    from dcx.serialize import loads_ogposet

    names = ("submolecules", "certificates", "splits", "prelayerings", "enumerate_sd")
    lines: dict[str, list[str]] = {name: [] for name in names}
    for path in sorted(INPUTS.glob("*.json")):
        if "." in path.stem or path.stem in CHECK_ONLY or path.stem in SD_WITNESSES:
            continue  # an ssset/1 or dcomplex/1 input, or one only checked or reported
        P = loads_ogposet(path.read_text(encoding="utf-8"))
        mol = Molecule(P, is_molecule(P))

        def add(section, value):
            lines[section].append(repr((path.stem, value)))

        subs = submolecules(mol)
        add("submolecules", [(s.subset.elements(), s.witness) for s in subs])
        for sub in subs:
            m = sub.subset.masks
            add("certificates", mol_cert(P, m))
            for k in range(P.masks_dim(m)):
                found = [(P.masks_els(a), P.masks_els(b)) for a, b in splits_masks(P, m, k)]
                add("splits", (k, found))
        for k in range(-1, mol.dim):
            pl = pre_layerings(mol, k)
            lays = [[layer.elements() for layer in lay] for lay in pl.elements]
            add("prelayerings", (k, lays, pl.covers()))
        levels = range(max(mol.dim, 0))
        for r in range(len(levels) + 1):
            for S in itertools.combinations(levels, r):
                add("enumerate_sd", (S, _sd_record(P, enumerate_sd(mol, S))))
    return {name: _digest("\n".join(text)) for name, text in lines.items()}


def _sd_record(P, sdp):
    """A subdivision poset with every element named by its sorted list of
    images: the bottom's name and, per element, its name and the sorted
    names of the elements above it."""
    names = [sorted(P.masks_els(m) for m in s.img.values()) for s in sdp.elements]
    rows = sorted(
        (names[i], sorted(names[j] for j in range(sdp.size) if sdp.poset.leq(i, j)))
        for i in range(sdp.size)
    )
    return names[sdp.bottom], rows


# -- regeneration ----------------------------------------------------------------


def _molecules(corpus):
    """(input name, molecule) for every golden ogposet/1 input."""
    from dcx import globe, oriental, paste, path, theta_from_tree

    for k in range(1, 8):
        yield f"path{k}", path(k)
    for k in range(4):
        yield f"globe{k}", globe(k)
    for k in range(4):
        yield f"oriental{k}", oriental(k)
    yield "theta", theta_from_tree("(((),()),())")
    yield "horiz", paste(globe(2), globe(2), 0)
    yield "vert", paste(globe(2), globe(2), 1)
    small = [m for m in corpus if m.dim >= 1 and m.size() <= CORPUS_MAX_ELEMENTS]
    for i, mol in enumerate(small[:CORPUS_TAKE]):
        yield f"corpus{i:02d}", mol


# valid ogposet/1 inputs on which only ``check`` runs, as raw data for
# ``validate``.  Three are not molecules: two opposite arrows between two
# points (Hasse-cyclic), two points, and a 2-cell whose input arrow and
# output arrow share no end.  Two are the Hasse-cyclic 3-atoms at indices 151
# (counts [4, 6, 4, 1]) and 206 ([5, 6, 3, 1]) of ``random_molecules(300, 2,
# max_elements=16, max_dim=4)``, which are frame-acyclic.
CHECK_ONLY = {
    "opposite": [2, [([0], [1]), ([1], [0])]],
    "points": [2],
    "apart": [4, [([0], [1]), ([2], [3])], [([0], [1])]],
    "cyclic151": [
        4,
        [([0], [1]), ([1], [2]), ([0], [2]), ([2], [3]), ([0], [3]), ([0], [1])],
        [([0, 1], [2]), ([2, 3], [4]), ([0], [5]), ([1, 3, 5], [4])],
        [([0, 1], [2, 3])],
    ],
    "cyclic206": [
        5,
        [([0], [1]), ([1], [2]), ([2], [3]), ([3], [4]), ([0], [4]), ([0], [1])],
        [([0, 1, 2, 3], [4]), ([0], [5]), ([1, 2, 3, 5], [4])],
        [([0], [1, 2])],
    ],
}

ARROW = ["atom", ["point"], ["point"]]

# dcomplex/1 inputs on which only ``cx verify`` runs; all exit 2.  In
# "swapped" the 2-simplex of delta2 attaches its edges 1.0 and 1.1 to each
# other's cells, so the labelling around (1, 0) does not restrict to the
# attachment.  In "misshaped" the faces of a 3-simplex are labelled by a
# 2-cell shaped as a 2-globe, not as a triangle.  In "stray" the arrow of
# delta1 also attaches 7.3, which is not an element of its shape.
CX_REJECTED = {
    "swapped": {
        "format": "dcomplex/1",
        "cells": [
            [{"shape": ["point"], "attach": {"0.0": f"0.{i}"}} for i in range(3)],
            [
                {"shape": ARROW, "attach": {"0.0": "0.0", "0.1": "0.1", "1.0": "1.0"}},
                {"shape": ARROW, "attach": {"0.0": "0.0", "0.1": "0.2", "1.0": "1.1"}},
                {"shape": ARROW, "attach": {"0.0": "0.1", "0.1": "0.2", "1.0": "1.2"}},
            ],
            [
                {
                    "shape": ["atom", ARROW, ["paste", 0, ARROW, ARROW]],
                    "attach": {
                        "0.0": "0.0", "0.1": "0.2", "0.2": "0.1",
                        "1.0": "1.0", "1.1": "1.1", "1.2": "1.2", "2.0": "2.0",
                    },
                }
            ],
        ],
    },
    "misshaped": {
        "format": "dcomplex/1",
        "cells": [
            [{"shape": ["point"], "attach": {"0.0": "0.0"}}],
            [{"shape": ARROW, "attach": {"0.0": "0.0", "0.1": "0.0", "1.0": "1.0"}}],
            [
                {
                    "shape": "globe:2",
                    "attach": {
                        "0.0": "0.0", "0.1": "0.0", "1.0": "1.0", "1.1": "1.0", "2.0": "2.0",
                    },
                }
            ],
            [
                {
                    "shape": "oriental:3",
                    "attach": {
                        **{f"0.{i}": "0.0" for i in range(4)},
                        **{f"1.{i}": "1.0" for i in range(6)},
                        **{f"2.{i}": "2.0" for i in range(4)},
                        "3.0": "3.0",
                    },
                }
            ],
        ],
    },
    "stray": {
        "format": "dcomplex/1",
        "cells": [
            [{"shape": ["point"], "attach": {"0.0": f"0.{i}"}} for i in range(2)],
            [{"shape": ARROW, "attach": {"0.0": "0.0", "0.1": "0.1", "1.0": "1.0", "7.3": "0.0"}}],
        ],
    },
}

# ogposet/1 inputs on which only ``sd --levels S --report`` runs: molecules of
# ``_corpus(max_elements=22)`` by index, each with a level set S at which its
# Sd poset does not dismantle to one point, so the report reads the Smith
# normal form of the nerve's boundary matrices.  At these level sets 11 gives
# a disconnected Sd, 73 one with a 1-cycle, 41 one with a 2-cycle, 95 one of
# 100 elements with a 3-cycle, and 85 an acyclic Sd of 27 elements that is
# not dismantlable.
SD_WITNESSES = {
    "witness11": (11, "1"),
    "witness73": (73, "1"),
    "witness41": (41, "1,2"),
    "witness95": (95, "1,2"),
    "witness85": (85, "1,2"),
}

CHECK_PROPERTIES = ("molecule", "round", "atom", "hasse-acyclic", "frame-acyclic")
FLOW_MODES = ("graph", "layerings", "orderings", "theory")


def _commands(dim: int):
    """For one molecule: ``sd`` and ``export --dot sd`` at every level set,
    ``sd --report``, a negative level, which exits 2, ``check`` of every
    property, ``flow`` of every mode and ``export --dot flow`` at every k
    from -1 to the dimension, and ``export --dot hasse``."""
    levels = range(max(dim, 0))
    for r in range(len(levels) + 1):
        for S in itertools.combinations(levels, r):
            text = ",".join(map(str, S))
            yield ["sd", "--levels", text]
            yield ["export", "--dot", "sd", "--levels", text]
    yield ["sd", "--report"]
    yield ["sd", "--levels", "-1"]
    for prop in CHECK_PROPERTIES:
        yield ["check", prop]
    for k in range(-1, dim + 1):
        for mode in FLOW_MODES:
            yield ["flow", mode, "--k", str(k)]
        yield ["flow", "graph", "--k", str(k), "--output", "dot"]
        yield ["export", "--dot", "flow", "--k", str(k)]
    yield ["export", "--dot", "hasse"]


def _make_commands():
    """``make`` of every target: the shapes built from numbers and trees,
    the operations on golden inputs, and malformed requests, which exit 2."""
    for k in range(4):
        yield ["make", "globe", str(k)]
        yield ["make", "oriental", str(k)]
    for k in range(5):
        yield ["make", "path", str(k)]
    for tree in ("()", "((),())", "(((),()),())", "(((),),())"):
        yield ["make", "theta", tree]
    pairs = [
        ("globe1", "globe1"),
        ("path2", "globe1"),
        ("globe2", "globe2"),
        ("horiz", "vert"),
        ("theta", "globe2"),
    ]
    for a, b in pairs:
        files = [f"inputs/{a}.json", f"inputs/{b}.json"]
        for k in range(3):
            yield ["make", "paste", *files, str(k)]
        yield ["make", "atom", *files]
        yield ["make", "join", *files]
    for name in ("path1", "path2", "globe2", "oriental2", "theta", "horiz"):
        yield ["make", "suspend", f"inputs/{name}.json"]
    yield ["make", "join", "inputs/oriental1.json", "inputs/oriental2.json"]
    yield ["make", "globe", "x"]
    yield ["make", "theta"]
    yield ["make", "theta", "(("]
    yield ["make", "paste", "inputs/globe1.json", "inputs/globe1.json"]
    yield ["make", "atom", "inputs/globe1.json"]
    yield ["make", "suspend"]
    yield ["make", "cube", "2"]


def _complex_commands(name: str):
    """``cx`` of every mode on one simplex, read as ssset/1 and as dcomplex/1."""
    yield ["cx", "import-ssset", f"inputs/{name}.ssset.json"]
    yield ["cx", "verify", f"inputs/{name}.ssset.json"]
    dump = f"inputs/{name}.dcomplex.json"
    yield ["cx", "verify", dump]
    for max_cells in (2, 3):
        yield ["cx", "molecules", "--max-cells", str(max_cells), dump]
    yield ["cx", "frame-acyclic", dump]
    yield ["cx", "frame-acyclic", "--budget", "2", dump]


def _corpus(**options):
    from conftest import CORPUS_SEED, CORPUS_SIZE
    from dcx import random_molecules

    return random_molecules(CORPUS_SIZE, seed=CORPUS_SEED, **options)


def update() -> int:
    from dcx import import_ssset, serialize, validate
    from dcx.dcomplex import SemiSimplicialSet

    INPUTS.mkdir(parents=True, exist_ok=True)
    for old in INPUTS.glob("*.json"):
        old.unlink()
    corpus = _corpus()
    witnesses = _corpus(max_elements=22)
    commands = []
    for name, mol in _molecules(corpus):
        (INPUTS / f"{name}.json").write_text(serialize.dumps_ogposet(mol.poset), encoding="utf-8")
        commands += [argv + [f"inputs/{name}.json"] for argv in _commands(mol.dim)]
    commands += list(_make_commands())
    for n in (1, 2, 3):
        S = SemiSimplicialSet.standard_simplex(n)
        (INPUTS / f"delta{n}.ssset.json").write_text(serialize.dumps_ssset(S), encoding="utf-8")
        (INPUTS / f"delta{n}.dcomplex.json").write_text(
            serialize.dumps_dcomplex(import_ssset(S)), encoding="utf-8"
        )
        commands += list(_complex_commands(f"delta{n}"))
    for name, raw in CHECK_ONLY.items():
        (INPUTS / f"{name}.json").write_text(serialize.dumps_ogposet(validate(raw)), encoding="utf-8")
        commands += [["check", prop, f"inputs/{name}.json"] for prop in CHECK_PROPERTIES]
    for name, doc in CX_REJECTED.items():
        (INPUTS / f"{name}.dcomplex.json").write_text(serialize.dumps_json(doc), encoding="utf-8")
        commands.append(["cx", "verify", f"inputs/{name}.dcomplex.json"])
    for name, (index, levels) in SD_WITNESSES.items():
        poset = witnesses[index].poset
        (INPUTS / f"{name}.json").write_text(serialize.dumps_ogposet(poset), encoding="utf-8")
        commands.append(["sd", "--levels", levels, "--report", f"inputs/{name}.json"])
    entries = []
    for argv in commands:
        text, code = run_command(argv)
        entries.append({"argv": argv, "stdout_sha256": _digest(text), "exit": code})
    lines = ",\n".join(" " + json.dumps(entry) for entry in entries)
    MANIFEST.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    LIBRARY.write_text(json.dumps(library_digest(corpus), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST} and the digest to {LIBRARY}")
    return 0


def check_all() -> int:
    """Run every command and the library digest; print one summary line."""
    start = time.perf_counter()
    entries = _entries(tier1=False)
    bad = _failures(entries)
    want = json.loads(LIBRARY.read_text(encoding="utf-8"))
    got = library_digest(_corpus())
    bad_sections = sorted(name for name in want if got.get(name) != want[name])
    for argv in bad:
        print("changed:", " ".join(argv))
    for name in bad_sections:
        print("changed: library digest section", name)
    print(
        f"golden: {len(entries)} commands, {len(bad)} failures; "
        f"library digest: {len(want)} sections, {len(bad_sections)} failures; "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if bad or bad_sections else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--update"]):
        sys.exit("usage: python3 tests/test_golden.py [--update]")
    here = Path(__file__).resolve()
    sys.path[:0] = [str(here.parents[1] / "src"), str(here.parent)]
    sys.exit(update() if sys.argv[1:] else check_all())
