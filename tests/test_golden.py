"""Golden outputs of the subdivision and check commands.

``tests/golden/manifest.json`` lists command lines of ``dcx sd``,
``dcx export --dot sd`` and ``dcx check``, each with the ogposet/1 file under
``tests/golden/inputs/`` that it reads, the sha256 of its stdout and its
exit code.  The test runs every entry through ``cli.run`` in-process and
compares both.  A change to the library that must keep these outputs
leaves the manifest alone; one that changes them on purpose rewrites the
inputs and the manifest with

    python3 tests/test_golden.py --update
"""
import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"

# the first molecules of the seeded test corpus with positive dimension and
# at most CORPUS_MAX_ELEMENTS elements are inputs too
CORPUS_TAKE = 12
CORPUS_MAX_ELEMENTS = 14


def run_command(argv, input_name) -> tuple[str, int]:
    """The stdout text and exit code of one command on one input file."""
    from dcx import cli  # imported late, after ``--update`` has put src/ on the path

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv) + [str(INPUTS / input_name)])
    return out.getvalue(), code


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_outputs_are_unchanged():
    entries = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert len(entries) > 200
    for entry in entries:
        text, code = run_command(entry["argv"], entry["input"])
        got = {"stdout_sha256": _digest(text), "exit": code}
        want = {"stdout_sha256": entry["stdout_sha256"], "exit": entry["exit"]}
        assert got == want, (entry["argv"], entry["input"])


# -- regeneration ----------------------------------------------------------------


def _molecules():
    """(input name, molecule) for every golden input."""
    from conftest import CORPUS_SEED, CORPUS_SIZE
    from dcx import globe, oriental, paste, path, random_molecules, theta_from_tree

    for k in range(1, 8):
        yield f"path{k}", path(k)
    for k in range(4):
        yield f"globe{k}", globe(k)
    for k in range(4):
        yield f"oriental{k}", oriental(k)
    yield "theta", theta_from_tree("(((),()),())")
    yield "horiz", paste(globe(2), globe(2), 0)
    yield "vert", paste(globe(2), globe(2), 1)
    corpus = random_molecules(CORPUS_SIZE, seed=CORPUS_SEED)
    small = [m for m in corpus if m.dim >= 1 and m.size() <= CORPUS_MAX_ELEMENTS]
    for i, mol in enumerate(small[:CORPUS_TAKE]):
        yield f"corpus{i:02d}", mol


CHECK_PROPERTIES = ("molecule", "round", "atom", "hasse-acyclic", "frame-acyclic")


def _commands(dim: int):
    """``sd`` and ``export --dot sd`` at every level set, ``sd --report``, a
    negative level, which exits 2, and ``check`` of every property."""
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


def update() -> int:
    from dcx import serialize

    INPUTS.mkdir(parents=True, exist_ok=True)
    for old in INPUTS.glob("*.json"):
        old.unlink()
    entries = []
    for name, mol in _molecules():
        input_name = f"{name}.json"
        (INPUTS / input_name).write_text(serialize.dumps_ogposet(mol.poset), encoding="utf-8")
        for argv in _commands(mol.dim):
            text, code = run_command(argv, input_name)
            entries.append(
                {"argv": argv, "input": input_name, "stdout_sha256": _digest(text), "exit": code}
            )
    lines = ",\n".join(" " + json.dumps(entry) for entry in entries)
    MANIFEST.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python3 tests/test_golden.py --update")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(update())
