"""A seeded fuzz of every reader, and of recognition on near-miss tables.

Syntactic part: each golden input under ``tests/golden/inputs`` is mutated
at JSON paths drawn with a seeded generator.  At each drawn path the value
is replaced by some of ``VALUES`` or deleted.  Every string that holds a
digit is also replaced by two near misses: its digits turned to ``x``, and
its trailing digits dropped (``"oriental:3"`` gives ``"oriental:x"`` and
``"oriental:"``).  Each mutant runs in process through ``cli.run``, under
``DCX_ELEMENT_LIMIT=200``, with up to ``commands`` of the golden manifest's
command lines that read its file.  No exception may escape, every exit code
is 0, 1 or 2, and an exit 2 must name what it refuses: its message may not
be a bare interpreter phrasing (``BARE``) or only a quoted key.

Semantic part: the face table of each golden ogposet/1 input, and of the
first molecules of the test corpus, is changed in one way at a time (see
``table_near_misses``): an element's sides swapped, an index moved to the
other side, dropped or added, or two elements relabelled as each other.
The tables stay well formed.  Every table that recognition accepts must be
rebuilt by its certificate, up to isomorphism: the replay has the table's
canonical key.  It must also be oriented thin (``conftest.is_oriented_thin``),
a property of molecules that recognition does not read.

Tier-1 runs the slice ``TIER1``.  The whole sweep ``FULL`` runs as a
script, which prints one summary line:

    python3 tests/test_fuzz.py
"""
import contextlib
import copy
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

SEED = 20261020
LIMIT = "200"
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

VALUES = (None, True, False, 0, -1, 1, 2.5, 10**9, "", "x", [], {})
DELETE = object()  # the mutation that deletes the value at a path
BARE = ("invalid literal", "object is not", "NoneType", "index out of range", "unhashable")
QUOTED_KEY = re.compile(r"(invalid \w+ input: )?'[^']*'")


class Sweep(NamedTuple):
    paths: int  # JSON paths drawn per file
    values: int  # of VALUES, drawn per path; a deletion is tried too
    commands: int  # manifest command lines run per mutant, at most
    tables: int  # near-miss face tables per ogposet/1 input, at most
    molecules: int  # molecules of the test corpus whose tables are changed too


FULL = Sweep(paths=25, values=3, commands=3, tables=20, molecules=100)
TIER1 = Sweep(paths=4, values=2, commands=2, tables=12, molecules=20)


def read_input(src: Path):
    return json.loads(src.read_text(encoding="utf-8"))


def json_paths(doc, prefix=()):
    """Every path below the root of a JSON document, in document order."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield prefix + (key,)
            yield from json_paths(value, prefix + (key,))


def value_at(doc, at):
    for key in at:
        doc = doc[key]
    return doc


def mutated(doc, at, value):
    """A copy of ``doc`` with ``value`` put at the path ``at``, or with the
    value there deleted when ``value`` is DELETE."""
    out = copy.deepcopy(doc)
    parent = value_at(out, at[:-1])
    if value is DELETE:
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return out


def near_misses(text: str) -> list[str]:
    """Two misspellings of a string that holds a digit."""
    if not re.search(r"\d", text):
        return []
    out = [re.sub(r"\d", "x", text), text.rstrip("0123456789")]
    return [miss for miss in dict.fromkeys(out) if miss != text]


def mutants(doc, sweep: Sweep, rng):
    """(path, mutation, mutated document) of one input: drawn paths with
    drawn values and a deletion, then every near miss of every string."""
    paths = list(json_paths(doc))
    seen = {json.dumps(doc, sort_keys=True)}
    plan = []
    for at in rng.sample(paths, min(sweep.paths, len(paths))):
        plan.extend((at, value) for value in rng.sample(VALUES, sweep.values))
        plan.append((at, DELETE))
    for at in paths:
        value = value_at(doc, at)
        if isinstance(value, str):
            plan.extend((at, miss) for miss in near_misses(value))
    for at, value in plan:
        out = mutated(doc, at, value)
        text = json.dumps(out, sort_keys=True)
        if text not in seen:
            seen.add(text)
            yield at, value, out


def manifest_commands() -> dict[str, list[list[str]]]:
    """The golden manifest's command lines, by the name of each input file
    they read."""
    out: dict[str, list[list[str]]] = {}
    for entry in json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8")):
        for arg in dict.fromkeys(entry["argv"]):
            if arg.startswith("inputs/"):
                out.setdefault(arg, []).append(entry["argv"])
    return out


def chosen_commands(commands, count, rng):
    """Up to ``count`` command lines, each of a different subcommand and
    mode when there are enough of them."""
    kinds = sorted({tuple(argv[:2]) for argv in commands})
    rng.shuffle(kinds)
    return [rng.choice([a for a in commands if tuple(a[:2]) == kind]) for kind in kinds[:count]]


def resolve(arg: str) -> str:
    return str(GOLDEN / arg) if arg.startswith("inputs/") else arg


def run_cli(argv) -> tuple[object, str]:
    """The exit code and stdout of one command line; an exception that
    escapes is returned as the exit code."""
    from dcx import cli  # imported late, after the script has put src/ on the path

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except Exception as exc:
            code = f"escaped {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def refusal_fault(code, out: str):
    """Why an exit code or message is bad, or None when it is good."""
    if code not in (0, 1, 2):
        return str(code)
    if code != 2:
        return None
    try:
        message = json.loads(out)["error"]
    except (ValueError, KeyError, TypeError):
        return f"no error document: {out!r}"
    if any(phrase in message for phrase in BARE) or QUOTED_KEY.fullmatch(message):
        return message
    return None


class Report(NamedTuple):
    exits: Counter  # exit code: runs
    bad: list  # (input, path, mutation, argv, what is wrong)


def syntactic_sweep(sweep: Sweep) -> Report:
    commands = manifest_commands()
    exits: Counter = Counter()
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for src in sorted(INPUTS.glob("*.json")):
            name = f"inputs/{src.name}"
            rng = random.Random(f"{SEED}:{src.name}")
            doc = read_input(src)
            argvs = chosen_commands(commands[name], sweep.commands, rng)
            target = Path(tmp) / src.name
            for at, value, out in mutants(doc, sweep, rng):
                target.write_text(json.dumps(out), encoding="utf-8")
                for argv in argvs:
                    code, stdout = run_cli([str(target) if a == name else resolve(a) for a in argv])
                    exits[code if code in (0, 1, 2) else "other"] += 1
                    fault = refusal_fault(code, stdout)
                    if fault is not None:
                        shown = "deleted" if value is DELETE else repr(value)
                        bad.append((src.name, "/".join(map(str, at)), shown, argv, fault))
    return Report(exits, bad)


def table_near_misses(faces, limit: int, rng):
    """Face tables (ogposet/1 ``faces`` lists) that differ from ``faces`` in
    one way: an element's two sides swapped, an index moved to its other
    side, dropped or added, or two elements of one dimension relabelled as
    each other.  At most ``limit`` of them, drawn with ``rng`` from each way
    in turn."""

    def size(d):
        return len(faces[d]) if isinstance(faces[d], list) else faces[d]

    ways: dict[str, list] = {"sides": [], "move": [], "drop": [], "add": [], "relabel": []}
    for d in range(len(faces)):
        pairs = itertools.combinations(range(size(d)), 2)
        ways["relabel"] += [(d, i, {i: k, k: i}) for i, k in pairs]
        for i, entry in enumerate(faces[d] if d else ()):
            ways["sides"].append((d, i, {"-": entry["+"], "+": entry["-"]}))
            for side, other in (("-", "+"), ("+", "-")):
                for j in entry[side]:
                    rest = [k for k in entry[side] if k != j]
                    ways["move"].append((d, i, {side: rest, other: sorted(entry[other] + [j])}))
                    ways["drop"].append((d, i, {side: rest, other: entry[other]}))
                for j in range(size(d - 1)):
                    if j not in entry["-"] and j not in entry["+"]:
                        added = sorted(entry[side] + [j])
                        ways["add"].append((d, i, {side: added, other: entry[other]}))
    for changes in ways.values():
        rng.shuffle(changes)
    picked = [c for row in itertools.zip_longest(*ways.values()) for c in row if c is not None]
    for d, i, change in picked[:limit]:
        table = copy.deepcopy(faces)
        if "-" in change:
            table[d][i] = change
        else:  # a relabelling of dimension d, and so of the faces above it
            if isinstance(table[d], list):
                table[d] = [table[d][change.get(n, n)] for n in range(size(d))]
            for entry in table[d + 1] if d + 1 < len(table) else ():
                for side in "-+":
                    entry[side] = sorted(change.get(j, j) for j in entry[side])
        yield table


def semantic_sweep(sweep: Sweep, corpus) -> tuple[int, int, list]:
    """(tables read, tables recognised, recognised tables whose certificate
    does not replay to their canonical key or that are not oriented thin),
    over the golden ogposet/1 inputs and the first molecules of ``corpus``."""
    from conftest import is_oriented_thin
    from dcx import DcxError, is_molecule, replay, serialize

    docs = {src.name: read_input(src) for src in sorted(INPUTS.glob("*.json"))}
    for n, mol in enumerate(corpus[: sweep.molecules]):
        docs[f"corpus[{n}]"] = serialize.ogposet_to_data(mol.poset)
    read = recognised = 0
    bad = []
    for name, doc in docs.items():
        if doc.get("format") != "ogposet/1":
            continue
        rng = random.Random(f"{SEED}:tables:{name}")
        for faces in table_near_misses(doc["faces"], sweep.tables, rng):
            try:
                P = serialize.ogposet_from_data({"format": "ogposet/1", "faces": faces})
            except DcxError:
                continue
            read += 1
            cert = is_molecule(P)
            if cert is None:
                continue
            recognised += 1
            if replay(cert).poset.canonical_key() != P.canonical_key():
                bad.append((name, "replay", faces))
            if not is_oriented_thin(P):
                bad.append((name, "not thin", faces))
    return read, recognised, bad


def test_near_misses_reach_every_shape_spec():
    """A drawn slice of paths can miss the few spec strings, so every
    string is misspelt whatever the sweep's size."""
    doc = read_input(INPUTS / "misshaped.dcomplex.json")
    misses = mutants(doc, TIER1, random.Random(SEED))
    made = {(at, value) for at, value, _ in misses if isinstance(value, str)}
    for at, kind in ((("cells", 2, 0, "shape"), "globe"), (("cells", 3, 0, "shape"), "oriental")):
        assert value_at(doc, at).startswith(f"{kind}:")
        assert {(at, f"{kind}:x"), (at, f"{kind}:")} <= made


def test_every_reader_refuses_mutants_by_name(monkeypatch):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", LIMIT)
    report = syntactic_sweep(TIER1)
    assert sum(report.exits.values()) > 1000
    assert set(report.exits) <= {0, 1, 2}
    assert report.bad == []


def test_recognised_near_miss_tables_replay_to_their_key(corpus):
    """Every recognised near-miss table replays to its key and is oriented thin."""
    read, recognised, bad = semantic_sweep(TIER1, corpus)
    assert read > 500 and recognised > 100
    assert bad == []


def main() -> None:
    start = time.process_time()
    os.environ["DCX_ELEMENT_LIMIT"] = LIMIT
    report = syntactic_sweep(FULL)
    from conftest import CORPUS_SEED, CORPUS_SIZE
    from dcx import random_molecules

    corpus = random_molecules(CORPUS_SIZE, seed=CORPUS_SEED)
    read, recognised, bad_tables = semantic_sweep(FULL, corpus)
    exits = dict(sorted(report.exits.items(), key=str))
    for entry in report.bad + bad_tables:
        print("bad:", *entry)
    faults = Counter(reason for _, reason, _ in bad_tables)
    print(
        f"fuzz: {sum(exits.values())} runs, exits {exits}, {len(report.bad)} bad messages;"
        f" {read} near-miss tables, {recognised} recognised,"
        f" {faults['replay']} bad certificates, {faults['not thin']} not thin;"
        f" {time.process_time() - start:.1f} s CPU"
    )
    sys.exit(1 if report.bad or bad_tables else 0)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    main()
