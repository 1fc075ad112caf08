"""The command line: exit codes 0/1/2 and argument order."""
import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dcx
from dcx import OgPoset, cli, path, serialize
from dcx.cli import run
from dcx.dcomplex import SemiSimplicialSet, import_ssset


@pytest.fixture
def files(tmp_path, horiz, sphere_boundary):
    out = {}

    def put(name, text):
        out[name] = str(tmp_path / name)
        Path(out[name]).write_text(text, encoding="utf-8")

    put("path2", serialize.dumps_ogposet(path(2).poset))
    put("horiz", serialize.dumps_ogposet(horiz.poset))
    put("sphere", serialize.dumps_ogposet(sphere_boundary))
    put("loop", serialize.dumps_ogposet(OgPoset((2, 2), [[], [((0,), (1,)), ((1,), (0,))]])))
    put("garbage", "{not json")
    simplex = SemiSimplicialSet.standard_simplex(2)
    put("simplex", serialize.dumps_ssset(simplex))
    put("triangle", serialize.dumps_dcomplex(import_ssset(simplex)))
    return out


def call(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_check_exit_codes(files, capsys):
    code, out = call(capsys, "check", "molecule", files["horiz"])
    assert code == 0 and json.loads(out)["holds"] is True
    assert call(capsys, "check", "frame-acyclic", files["horiz"])[0] == 0
    code, out = call(capsys, "check", "molecule", files["sphere"])
    assert code == 1 and json.loads(out)["holds"] is False
    assert call(capsys, "check", "round", files["horiz"])[0] == 1
    assert call(capsys, "check", "molecule", files["garbage"])[0] == 2
    assert call(capsys, "check", "round", files["sphere"])[0] == 2
    assert call(capsys, "check", "no-such-property", files["horiz"])[0] == 2


def test_check_hasse_acyclic(files, capsys):
    code, out = call(capsys, "check", "hasse-acyclic", files["loop"])
    assert code == 1 and json.loads(out)["holds"] is False
    code, out = call(capsys, "check", "hasse-acyclic", files["horiz"])
    assert code == 0 and json.loads(out)["holds"] is True


def test_flow_options_before_or_after_file(files, capsys):
    before = call(capsys, "flow", "graph", "--k", "0", files["horiz"])
    after = call(capsys, "flow", "graph", files["horiz"], "--k", "0")
    assert before[0] == after[0] == 0
    assert before[1] == after[1]
    assert json.loads(before[1])["edges"]
    dot = call(capsys, "flow", "graph", "--output", "dot", files["horiz"], "--k", "0")
    assert dot[0] == 0 and dot[1].startswith("digraph")


def test_flow_exit_codes(files, capsys):
    assert call(capsys, "flow", "theory", files["path2"], "--k", "0")[0] == 0
    # k below the frame dimension fails the theory's precondition
    assert call(capsys, "flow", "theory", "--k", "-1", files["horiz"])[0] == 2
    assert call(capsys, "flow", "graph", files["horiz"])[0] == 2
    assert call(capsys, "flow", "graph", files["horiz"], "--k", "0", "--output", "text")[0] == 2
    assert call(capsys, "flow", "layerings", files["horiz"], "--k", "0", "--output", "dot")[0] == 2
    assert call(capsys, "flow", "graph", "--k", "0", files["sphere"])[0] == 2


def test_flow_theory_exits_1_with_a_failing_report(files, capsys, monkeypatch):
    """A theory report whose check fails is written as it is, and the
    command exits 1."""
    from test_flow import drop_first_cover

    drop_first_cover(monkeypatch)
    report = dcx.check_layering_theory(path(2), 0)
    assert not report["iso"]
    code, out = call(capsys, "flow", "theory", files["path2"], "--k", "0")
    assert code == 1 and out == serialize.dumps_json(report)


def test_sd_options_before_or_after_file(files, capsys):
    before = call(capsys, "sd", "--levels", "0", files["horiz"])
    after = call(capsys, "sd", files["horiz"], "--levels", "0")
    assert before[0] == after[0] == 0
    assert before[1] == after[1]
    assert json.loads(before[1])["levels"] == [0]
    assert json.loads(call(capsys, "sd", files["horiz"])[1])["levels"] == [0, 1]
    code, out = call(capsys, "sd", "--report", files["path2"])
    assert code == 0 and "sd_size" in json.loads(out)
    assert call(capsys, "sd", files["horiz"], "--levels", "x")[0] == 2
    assert call(capsys, "sd", "--levels", "0", files["sphere"])[0] == 2


def test_cx_options_before_or_after_file(files, capsys):
    before = call(capsys, "cx", "molecules", "--max-cells", "2", files["triangle"])
    after = call(capsys, "cx", "molecules", files["triangle"], "--max-cells", "2")
    assert before[0] == after[0] == 0
    assert before[1] == after[1]
    assert json.loads(before[1])["count"] > 0
    assert call(capsys, "cx", "verify", files["triangle"])[0] == 0
    assert call(capsys, "cx", "import-ssset", files["simplex"])[0] == 0
    assert call(capsys, "cx", "import-ssset", files["horiz"])[0] == 2
    code, out = call(capsys, "cx", "frame-acyclic", "--budget", "2", files["triangle"])
    assert code == 0 and json.loads(out)["verdict"] != "counterexample"
    assert call(capsys, "cx", "verify", files["garbage"])[0] == 2
    assert call(capsys, "cx", "molecules", files["horiz"], "--max-cells", "2")[0] == 2


@pytest.mark.parametrize(
    "command, option, name",
    [("molecules", "--max-cells", "max_cells"), ("frame-acyclic", "--budget", "budget")],
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_cell_bound_exits_2(files, capsys, command, option, name, value):
    code, out = call(capsys, "cx", command, option, value, files["triangle"])
    assert code == 2
    assert json.loads(out)["error"] == f"{name} must be at least 1, got {value}"


@pytest.mark.parametrize("value", ["abc", "", "2.5"])
def test_malformed_element_limit_exits_2(files, capsys, monkeypatch, value):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", value)
    for argv in (["check", "molecule", files["horiz"]], ["cx", "molecules", files["triangle"]]):
        code, out = call(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == f"DCX_ELEMENT_LIMIT={value!r} is not an integer"
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "3")
    code, out = call(capsys, "check", "molecule", files["horiz"])
    assert code == 2 and "over DCX_ELEMENT_LIMIT=3" in json.loads(out)["error"]


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_element_limit_exits_2(files, capsys, monkeypatch, value):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", value)
    for argv in (["check", "molecule", files["horiz"]], ["cx", "molecules", files["triangle"]]):
        code, out = call(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == f"DCX_ELEMENT_LIMIT={value!r} is not positive"


def test_python_dash_m_runs_the_cli(files):
    env = dict(os.environ)
    src = str(Path(dcx.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "dcx.cli", "check", "molecule", files["path2"]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["holds"] is True
    proc = subprocess.run(
        [sys.executable, "-m", "dcx.cli", "check", "molecule", files["sphere"]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1


def test_make_exit_codes(files, capsys):
    code, out = call(capsys, "make", "oriental", "3")
    assert code == 0
    made = serialize.loads_ogposet(out)
    assert made.canonical_key() == dcx.oriental(3).poset.canonical_key()
    for what in (["globe", "2"], ["path", "3"], ["theta", "((),())"]):
        assert call(capsys, "make", *what)[0] == 0
    horiz, path2 = files["horiz"], files["path2"]
    code, out = call(capsys, "make", "paste", horiz, horiz, "1")
    assert code == 0 and dcx.is_molecule(serialize.loads_ogposet(out)) is not None
    assert call(capsys, "make", "atom", path2, path2)[0] == 0
    assert call(capsys, "make", "join", path2, path2)[0] == 0
    assert call(capsys, "make", "suspend", horiz)[0] == 0
    for bad in (
        ["oriental"],
        ["oriental", "x"],
        ["theta"],
        ["theta", "(("],
        ["paste", horiz, horiz],
        ["paste", horiz, files["garbage"], "0"],
        ["paste", files["sphere"], horiz, "0"],
        ["atom", path2],
        ["suspend"],
        ["cube", "2"],
    ):
        code, out = call(capsys, "make", *bad)
        assert code == 2, bad
        assert "error" in json.loads(out)


MAKE_ARGUMENTS = {
    "globe": lambda files: ["1"],
    "path": lambda files: ["1"],
    "oriental": lambda files: ["1"],
    "theta": lambda files: ["((),())"],
    "paste": lambda files: [files["horiz"], files["horiz"], "1"],
    "atom": lambda files: [files["path2"], files["path2"]],
    "join": lambda files: [files["path2"], files["path2"]],
    "suspend": lambda files: [files["horiz"]],
}


@pytest.mark.parametrize("target", MAKE_ARGUMENTS)
def test_make_rejects_an_extra_argument(target, files, capsys):
    """Every make target takes a fixed number of arguments, and one more
    exits 2 with the target's usage."""
    usages = {name: usage for name, _, usage, _ in cli._MAKE_TARGETS}
    assert set(MAKE_ARGUMENTS) == set(usages)
    args = MAKE_ARGUMENTS[target](files)
    assert call(capsys, "make", target, *args)[0] == 0
    code, out = call(capsys, "make", target, *args, "junk")
    assert code == 2
    assert json.loads(out)["error"] == f"make {target} needs {usages[target]}"


def test_make_negative_size_exits_2(capsys):
    for kind in ("globe", "path", "oriental"):
        code, out = call(capsys, "make", kind, "-1")
        assert code == 2, kind
        assert "size >= 0" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["make", "theta", "(" * 1200 + ")" * 1200],
        ["check", "molecule", "deep.json"],
    ],
    ids=["theta", "json"],
)
def test_too_deep_input_exits_2(argv, tmp_path, monkeypatch, capsys):
    """Input deeper than the recursion limit is invalid input, not a crash."""
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out = call(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"].startswith("input too deep: maximum recursion depth")


def test_make_globe_beyond_the_recursion_limit(capsys, monkeypatch):
    """A globe is built from its face table, so its size has no depth limit."""
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "2201")
    code, out = call(capsys, "make", "globe", "1100")
    assert code == 0
    assert sum(len(level) for level in json.loads(out)["faces"]) == 2201


def refuse_to_build(*args):
    raise AssertionError("a target over the limit was built")


@pytest.fixture
def paths_4_and_5(tmp_path):
    out = {}
    for k in (4, 5):
        out[k] = str(tmp_path / f"path{k}.json")
        Path(out[k]).write_text(serialize.dumps_ogposet(path(k).poset), encoding="utf-8")
    return out


def test_make_over_the_element_limit_exits_2_before_building(
    capsys, monkeypatch, paths_4_and_5
):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "100")
    for name in ("globe", "path", "oriental", "join"):
        monkeypatch.setattr(cli, name, refuse_to_build)
    p5 = paths_4_and_5[5]
    for what, size in (
        (["globe", "50"], "101"),
        (["path", "50"], "101"),
        (["oriental", "6"], "2^7 - 1"),
        (["oriental", "1000000000"], "2^1000000001 - 1"),
        (["join", p5, p5], "143"),
    ):
        start = time.perf_counter()
        code, out = call(capsys, "make", *what)
        assert time.perf_counter() - start < 1.0, what
        assert code == 2, what
        assert json.loads(out)["error"] == (
            f"make {' '.join(what)} would build {size} elements, over DCX_ELEMENT_LIMIT=100"
        )


def test_make_at_the_element_limit_builds(capsys, monkeypatch, paths_4_and_5):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "100")
    p4 = paths_4_and_5[4]
    for what, size in ((["globe", "49"], 99), (["oriental", "5"], 63), (["join", p4, p4], 99)):
        code, out = call(capsys, "make", *what)
        assert code == 0, what
        assert serialize.loads_ogposet(out).size() == size


def test_every_poset_input_is_guarded(tmp_path, capsys, monkeypatch):
    points = tmp_path / "points.json"
    points.write_text(serialize.dumps_ogposet(OgPoset((101,), [[]])), encoding="utf-8")
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "100")
    error = {"error": "input has 101 elements, over DCX_ELEMENT_LIMIT=100"}
    for argv in (
        ["check", "hasse-acyclic", str(points)],
        ["check", "molecule", str(points)],
        ["check", "round", str(points)],
        ["export", "--dot", "hasse", str(points)],
    ):
        code, out = call(capsys, *argv)
        assert (code, json.loads(out)) == (2, error), argv


LISTED_DOCS = {
    "ogposet points": (["check", "hasse-acyclic"], {"format": "ogposet/1", "faces": [6]}),
    "ogposet arrows": (
        ["check", "molecule"],
        {"format": "ogposet/1", "faces": [[{}] * 4, [[[0], [1]], [[2], [3]]]]},
    ),
    "ssset vertices": (["cx", "import-ssset"], {"format": "ssset/1", "faces": [6]}),
    "ssset triangle": (
        ["cx", "import-ssset"],
        {"format": "ssset/1", "faces": [3, [[1, 0], [2, 0], [2, 1]]]},
    ),
}


@pytest.mark.parametrize("case", LISTED_DOCS)
def test_inputs_are_sized_before_anything_is_built(tmp_path, capsys, monkeypatch, case):
    argv, doc = LISTED_DOCS[case]
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "5")
    monkeypatch.setattr(OgPoset, "__init__", refuse_to_build)
    monkeypatch.setattr(dcx.dcomplex.Cell, "__init__", refuse_to_build)
    code, out = call(capsys, *argv, write_doc(tmp_path, json.dumps(doc)))
    assert (code, json.loads(out)) == (
        2, {"error": "input has 6 elements, over DCX_ELEMENT_LIMIT=5"}
    )


def test_inputs_at_the_element_limit_are_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "5")
    for argv, doc in (
        (["check", "hasse-acyclic"], {"format": "ogposet/1", "faces": [5]}),
        (["cx", "import-ssset"], {"format": "ssset/1", "faces": [5]}),
    ):
        code, _ = call(capsys, *argv, write_doc(tmp_path, json.dumps(doc)))
        assert code == 0, argv


def test_export_options_before_or_after_file(files, capsys):
    for opts in (["--dot", "hasse"], ["--dot", "flow", "--k", "0"], ["--dot", "sd", "--levels", "0"]):
        before = call(capsys, "export", *opts, files["horiz"])
        after = call(capsys, "export", files["horiz"], *opts)
        assert before[0] == after[0] == 0
        assert before[1] == after[1]
        assert before[1].startswith("digraph")
    # the default level set is every level below the dimension
    assert call(capsys, "export", "--dot", "sd", files["horiz"]) == call(
        capsys, "export", "--dot", "sd", files["horiz"], "--levels", "0,1"
    )
    assert call(capsys, "export", "--dot", "hasse", files["sphere"])[0] == 0
    assert call(capsys, "export", files["horiz"])[0] == 2
    assert call(capsys, "export", "--dot", "png", files["horiz"])[0] == 2
    assert call(capsys, "export", "--dot", "hasse", files["garbage"])[0] == 2
    assert call(capsys, "export", files["sphere"], "--dot", "flow")[0] == 2
    assert call(capsys, "export", "--dot", "sd", files["horiz"], "--levels", "x")[0] == 2


NOT_OBJECTS = ["[1]", '"x"', "3", "null"]


def write_doc(tmp_path, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text, encoding="utf-8")
    return str(doc)


@pytest.mark.parametrize("text", NOT_OBJECTS)
def test_ogposet_document_not_an_object_exits_2(tmp_path, capsys, text):
    doc = write_doc(tmp_path, text)
    for argv in (["check", "molecule", doc], ["export", "--dot", "hasse", doc]):
        code, out = call(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "invalid ogposet input: expected an ogposet/1 document"


@pytest.mark.parametrize("text", NOT_OBJECTS)
def test_dcomplex_document_not_an_object_exits_2(tmp_path, capsys, text):
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == "invalid dcomplex input: expected a dcomplex/1 document"


@pytest.mark.parametrize("text", NOT_OBJECTS)
def test_ssset_document_not_an_object_exits_2(tmp_path, capsys, text):
    code, out = call(capsys, "cx", "import-ssset", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == "invalid ssset input: expected an ssset/1 document"


# JSON true and false are Python bools, which are ints: an ogposet/1 reader
# that only compares them with the bounds reads true as 1
BAD_NUMBERS = {
    "bool-index": (
        '{"format":"ogposet/1","faces":[[{},{}],[{"-":[true],"+":[false]}]]}',
        "element (1,0) has face index True, not an integer",
    ),
    "bool-count": (
        '{"format":"ogposet/1","faces":[true]}',
        "the 0-element count True is not a non-negative integer",
    ),
    "negative-count": (
        '{"format":"ogposet/1","faces":[-3]}',
        "the 0-element count -3 is not a non-negative integer",
    ),
    "float-count": (
        '{"format":"ogposet/1","faces":[2.5]}',
        "the 0-element count 2.5 is not a non-negative integer",
    ),
}


MALFORMED_FACES = {
    "entry-not-a-pair": (
        '{"format":"ogposet/1","faces":[2,[[0]]]}',
        "element (1,0) has face entry [0], not two index lists",
    ),
    "side-not-a-list": (
        '{"format":"ogposet/1","faces":[2,[[[0],[1]],{"-":0}]]}',
        "element (1,1) has face entry {'-': 0}, not two index lists",
    ),
    "dimension-not-a-list": (
        '{"format":"ogposet/1","faces":[2,5]}',
        "dimension 1 of the face table is 5, not a list",
    ),
    "table-not-a-list": (
        '{"format":"ogposet/1","faces":5}',
        "the face table 5 is not a list",
    ),
    # a 0-element's entry is read too: it has two empty sides
    "0-element-with-faces": (
        '{"format":"ogposet/1","faces":[[{"-":[0],"+":[1]}]]}',
        "element (0,0) has face entry {'-': [0], '+': [1]}, but 0-elements have no faces",
    ),
    # a mapping entry has no key but the two sides
    "stray-key": (
        '{"format":"ogposet/1","faces":[2,[{"-":[0],"+":[1],"junk":1}]]}',
        "element (1,0) has face entry key 'junk', not '-' or '+'",
    ),
    "misspelt-side": (
        '{"format":"ogposet/1","faces":[2,[{"-":[0],"+ ":[1]}]]}',
        "element (1,0) has face entry key '+ ', not '-' or '+'",
    ),
    "0-element-stray-key": (
        '{"format":"ogposet/1","faces":[[{},{"x":1}]]}',
        "element (0,1) has face entry key 'x', not '-' or '+'",
    ),
    "0-element-not-a-pair": (
        '{"format":"ogposet/1","faces":[[-1]]}',
        "element (0,0) has face entry -1, not two index lists",
    ),
}


@pytest.mark.parametrize("text, error", MALFORMED_FACES.values(), ids=MALFORMED_FACES.keys())
def test_ogposet_malformed_faces_exit_2(tmp_path, capsys, text, error):
    """A face table of the wrong shape is named by dimension and index."""
    code, out = call(capsys, "check", "molecule", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == f"invalid ogposet input: {error}"


@pytest.mark.parametrize(
    "argv, kind", [(["check", "molecule"], "ogposet"), (["cx", "import-ssset"], "ssset")]
)
def test_document_without_faces_exits_2_naming_the_field(tmp_path, capsys, argv, kind):
    code, out = call(capsys, *argv, write_doc(tmp_path, json.dumps({"format": f"{kind}/1"})))
    assert code == 2
    assert json.loads(out)["error"] == f'invalid {kind} input: the document has no "faces" field'


@pytest.mark.parametrize("text, error", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_ogposet_count_or_index_not_an_integer_exits_2(tmp_path, capsys, text, error):
    code, out = call(capsys, "check", "molecule", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == f"invalid ogposet input: {error}"


# the ssset/1 and dcomplex/1 readers, like ogposet/1, read no bool, string or
# float as a count, an index or a pasting level
BAD_SSSET_NUMBERS = {
    "negative-count": ("[-3]", "the vertex count -3 is not a non-negative integer"),
    "bool-count": ("[true]", "the vertex count True is not a non-negative integer"),
    "string-count": ('["ab"]', "the vertex count 'ab' is not a non-negative integer"),
    "bool-index": ("[2,[[0,true]]]", "simplex (1,0) has face index True, not an integer"),
}


@pytest.mark.parametrize("faces, error", BAD_SSSET_NUMBERS.values(), ids=BAD_SSSET_NUMBERS.keys())
def test_ssset_count_or_index_not_an_integer_exits_2(tmp_path, capsys, faces, error):
    text = f'{{"format":"ssset/1","faces":{faces}}}'
    code, out = call(capsys, "cx", "import-ssset", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == f"invalid ssset input: {error}"


# ssset/1 face tables of the wrong shape are named by dimension and simplex
MALFORMED_SSSET = {
    "dimension-not-a-list": ("[2,5]", "dimension 1 of the face table is 5, not a list"),
    "entry-not-a-list": ("[2,[5]]", "simplex (1,0) has face entry 5, not an index list"),
    "table-not-a-list": ("5", "the face table 5 is not a list"),
}


@pytest.mark.parametrize("faces, error", MALFORMED_SSSET.values(), ids=MALFORMED_SSSET.keys())
def test_ssset_malformed_faces_exit_2(tmp_path, capsys, faces, error):
    text = f'{{"format":"ssset/1","faces":{faces}}}'
    code, out = call(capsys, "cx", "import-ssset", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == f"invalid ssset input: {error}"


# (the shape of a one-cell dcomplex/1 document, its attachment map, the error)
MALFORMED_CELLS = {
    "truncated-paste": (["paste", 0], {}, "certificate head 'paste' takes 3 entries, not 1"),
    "empty-certificate": ([], {}, "certificate [] is not a nonempty list"),
    "truncated-atom": (
        ["atom", ["point"]], {}, "certificate head 'atom' takes 2 entries, not 1"
    ),
    "long-point": (["point", 1], {}, "certificate head 'point' takes 0 entries, not 1"),
    "attach-not-an-object": (["point"], [], "cell (0,0) has attach [], not an object"),
    "attach-not-a-name": (
        ["point"], {"0.0": 5}, 'attach entry 5 is not an element name "d.i"'
    ),
    # decimal digits outside ASCII: Arabic-Indic and fullwidth zeros
    "attach-key-not-ascii": (
        ["point"],
        {"\u0660.\u0660": "0.0"},
        'attach entry \'\u0660.\u0660\' is not an element name "d.i"',
    ),
    "attach-value-not-ascii": (
        ["point"],
        {"0.0": "\uff10.\uff10"},
        'attach entry \'\uff10.\uff10\' is not an element name "d.i"',
    ),
}


@pytest.mark.parametrize(
    "shape, attach, error", MALFORMED_CELLS.values(), ids=MALFORMED_CELLS.keys()
)
def test_dcomplex_malformed_cell_exits_2(tmp_path, capsys, shape, attach, error):
    """A malformed shape certificate or attachment map is input of the
    wrong shape, exit 2 naming the field, not a failed check."""
    text = json.dumps({"format": "dcomplex/1", "cells": [[{"shape": shape, "attach": attach}]]})
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == f"invalid dcomplex input: {error}"


# (the "cells" field of a dcomplex/1 document, or None for none, the error)
MALFORMED_TABLES = {
    "no-cells": (None, 'the document has no "cells" field'),
    "cells-not-a-list": (5, "the cell table 5 is not a list"),
    "level-not-a-list": ([5], "dimension 0 of the cell table is 5, not a list"),
    "cell-not-an-object": ([[5]], "cell (0,0) is 5, not an object"),
    "cell-without-attach": ([[{"shape": ["point"]}]], 'cell (0,0) has no "attach" field'),
}


@pytest.mark.parametrize("cells, error", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES.keys())
def test_dcomplex_malformed_cell_table_exits_2(tmp_path, capsys, cells, error):
    """A cell table, level or cell entry of the wrong shape exits 2 naming
    the field, and the cell when there is one."""
    doc = {"format": "dcomplex/1"} if cells is None else {"format": "dcomplex/1", "cells": cells}
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, json.dumps(doc)))
    assert code == 2
    assert json.loads(out)["error"] == f"invalid dcomplex input: {error}"


# (simplex dimension, the level written, what replaces it, how the error shows it)
BAD_LEVELS = {
    "bool": (3, 1, "true", "True"),
    "string": (2, 0, '"0"', "'0'"),
    "float": (2, 0, "0.9", "0.9"),
}


@pytest.mark.parametrize("n, level, bad, shown", BAD_LEVELS.values(), ids=BAD_LEVELS.keys())
def test_dcomplex_pasting_level_not_an_integer_exits_2(tmp_path, capsys, n, level, bad, shown):
    text = serialize.dumps_dcomplex(import_ssset(SemiSimplicialSet.standard_simplex(n)))
    assert call(capsys, "cx", "verify", write_doc(tmp_path, text))[0] == 0
    text = text.replace(f'"paste",{level},', f'"paste",{bad},')
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == (
        f"invalid dcomplex input: pasting level {shown} is not an integer"
    )


SHAPES_OVER_100 = {
    "oriental:7": "2^8 - 1",
    "oriental:1000000000": "2^1000000001 - 1",
    "globe:50": "101",
}


@pytest.mark.parametrize("spec, size", SHAPES_OVER_100.items(), ids=SHAPES_OVER_100.keys())
def test_shape_spec_over_the_element_limit_exits_2_before_building(
    tmp_path, capsys, monkeypatch, spec, size
):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "100")
    for name in ("oriental", "globe"):
        monkeypatch.setattr(serialize, name, refuse_to_build)
    text = json.dumps({"format": "dcomplex/1", "cells": [[{"shape": spec, "attach": {}}]]})
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == (
        f"invalid dcomplex input: shape {spec!r} would build {size} elements,"
        " over DCX_ELEMENT_LIMIT=100"
    )


# specs whose text after the colon is not a size in ASCII digits
SPECS_WITHOUT_A_SIZE = [
    "oriental:x",
    "oriental:",
    "oriental",
    "globe:1.5",
    "oriental:-1",
    "oriental: 2",
    "oriental:+1",
    "oriental:1_0",
    "globe:\u0663",
    "globe:\u00b2",
]


@pytest.mark.parametrize("spec", SPECS_WITHOUT_A_SIZE)
def test_shape_spec_without_a_digit_size_exits_2_naming_the_spec(tmp_path, capsys, spec):
    text = json.dumps({"format": "dcomplex/1", "cells": [[{"shape": spec, "attach": {}}]]})
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == (
        f"invalid dcomplex input: shape spec {spec!r} needs a non-negative integer after ':'"
    )


@pytest.mark.parametrize("spec", ["cube:2", "Globe:1", "globe 1", ""])
def test_shape_spec_of_an_unknown_kind_exits_2(tmp_path, capsys, spec):
    text = json.dumps({"format": "dcomplex/1", "cells": [[{"shape": spec, "attach": {}}]]})
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, text))
    assert code == 2
    assert json.loads(out)["error"] == f"invalid dcomplex input: unknown shape spec {spec!r}"


def test_cells_read_from_an_imported_document_share_one_shape_per_dimension(
    tmp_path, capsys, monkeypatch
):
    doc = write_doc(tmp_path, serialize.dumps_ssset(SemiSimplicialSet.standard_simplex(3)))
    code, out = call(capsys, "cx", "import-ssset", doc)
    assert code == 0
    replays = []

    def counted(cert):
        replays.append(cert)
        return dcx.replay(cert)

    monkeypatch.setattr(serialize, "replay", counted)
    X = serialize.loads_dcomplex(out)
    assert [len(level) for level in X.cells] == [4, 6, 4, 1]
    for level in X.cells:
        assert all(cell.shape is level[0].shape for cell in level)
    assert len(replays) == len(set(replays)) == 4
    assert serialize.dumps_dcomplex(X) == out


POINT_CELLS = {
    "certificates": (["point"], ["point"], None),
    "specs": ("oriental:0", "globe:0", None),
    "string-after-certificate": (["point"], '["point"]', '["point"]'),
    "string-before-certificate": ('["point"]', ["point"], '["point"]'),
}


@pytest.mark.parametrize("first, second, unknown", POINT_CELLS.values(), ids=POINT_CELLS.keys())
def test_a_spec_string_is_never_read_as_a_certificate(tmp_path, capsys, first, second, unknown):
    """Two point cells, each shaped by a spec or a certificate: a string
    that spells a certificate is an unknown spec, whatever was read before."""
    cells = [[{"shape": first, "attach": {"0.0": "0.0"}}, {"shape": second, "attach": {"0.0": "0.1"}}]]
    text = json.dumps({"format": "dcomplex/1", "cells": cells})
    code, out = call(capsys, "cx", "verify", write_doc(tmp_path, text))
    if unknown is None:
        assert code == 0, out
    else:
        assert code == 2
        assert json.loads(out)["error"] == f"invalid dcomplex input: unknown shape spec {unknown!r}"


def test_certificate_shape_over_the_element_limit_exits_2(files, capsys, monkeypatch):
    # a certificate shape is checked after its replay, which builds at most
    # one element per node of the certificate: the triangle's 2-cell has 7
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "6")
    code, out = call(capsys, "cx", "verify", files["triangle"])
    assert code == 2
    assert json.loads(out)["error"] == (
        "invalid dcomplex input: a certificate shape would build 7 elements,"
        " over DCX_ELEMENT_LIMIT=6"
    )


def one_simplex_per_dimension(n: int) -> str:
    """An ssset/1 document with one simplex in each dimension 0..n, every
    face index 0."""
    faces = [1] + [[[0] * (d + 1)] for d in range(1, n + 1)]
    return json.dumps({"format": "ssset/1", "faces": faces})


def test_import_ssset_over_the_element_limit_exits_2_before_building(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "100")
    monkeypatch.setattr(dcx.dcomplex, "oriental_with_labels", refuse_to_build)
    doc = write_doc(tmp_path, one_simplex_per_dimension(6))
    code, out = call(capsys, "cx", "import-ssset", doc)
    assert code == 2
    assert json.loads(out)["error"] == (
        "invalid ssset input: a 6-simplex would build 2^7 - 1 elements,"
        " over DCX_ELEMENT_LIMIT=100"
    )


def test_import_ssset_at_the_element_limit_builds(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "100")
    doc = write_doc(tmp_path, one_simplex_per_dimension(5))
    code, out = call(capsys, "cx", "import-ssset", doc)
    assert code == 0
    assert [len(level) for level in json.loads(out)["cells"]] == [1] * 6


# -- one parser for every query -------------------------------------------------------

SUBCOMMAND_NAMES = ["make", "check", "flow", "sd", "cx", "export"]

# help and usage errors of every subcommand; FILE stands for a molecule file
USAGE_CASES = [
    ["make", "--help"],
    ["make"],
    ["make", "globe", "1", "--no-such"],
    ["check", "--help"],
    ["check"],
    ["check", "no-such", "FILE"],
    ["check", "molecule", "FILE", "--no-such"],
    ["check", "molecule", "FILE", "extra"],
    ["flow", "--help"],
    ["flow", "--k", "0"],
    ["flow", "no-such", "FILE", "--k", "0"],
    ["flow", "graph", "FILE", "--k", "x"],
    ["flow", "graph", "FILE", "--k", "0", "--no-such"],
    ["flow", "graph", "FILE", "extra", "--k", "0"],
    ["sd", "--help"],
    ["sd", "FILE", "--levels"],
    ["sd", "FILE", "--no-such"],
    ["sd", "FILE", "extra"],
    ["cx", "--help"],
    ["cx"],
    ["cx", "no-such", "FILE"],
    ["cx", "molecules", "FILE", "--max-cells", "x"],
    ["cx", "verify", "FILE", "--no-such"],
    ["cx", "verify", "FILE", "extra"],
    ["export", "--help"],
    ["export", "FILE"],
    ["export", "--dot", "no-such", "FILE"],
    ["export", "--dot", "flow", "FILE", "--k", "x"],
    ["export", "--dot", "hasse", "FILE", "--no-such"],
    ["export", "--dot", "hasse", "FILE", "extra"],
]


def error_out(message) -> str:
    return serialize.dumps_json({"error": message})


# one command line per reader; PATH is replaced by the file read
READERS = {
    "ogposet": ["check", "molecule", "PATH"],
    "molecule": ["make", "paste", "PATH", "PATH", "0"],
    "dcomplex": ["cx", "verify", "PATH"],
    "ssset": ["cx", "import-ssset", "PATH"],
}


def with_path(argv, path_arg):
    return [str(path_arg) if arg == "PATH" else arg for arg in argv]


@pytest.mark.parametrize("argv", READERS.values(), ids=READERS.keys())
def test_an_unreadable_path_is_not_reported_as_invalid_input(tmp_path, capsys, argv):
    with pytest.raises(OSError) as exc:
        open(tmp_path, encoding="utf-8")
    code, out = call(capsys, *with_path(argv, tmp_path))
    assert (code, out) == (2, error_out(f"cannot read {tmp_path}: {exc.value}"))


@pytest.mark.parametrize("kind", ["ogposet", "dcomplex", "ssset"])
def test_a_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys, kind):
    data = b'{"format": "x", "faces": "\xe9"}'
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode("utf-8")
    (tmp_path / "latin1.json").write_bytes(data)
    code, out = call(capsys, *with_path(READERS[kind], tmp_path / "latin1.json"))
    assert str(exc.value).startswith("'utf-8' codec can't decode")
    assert (code, out) == (2, error_out(f"invalid {kind} input: {exc.value}"))


def test_an_unknown_make_target_exits_2(capsys):
    assert call(capsys, "make", "cube", "2") == (2, error_out("unknown make target 'cube'"))


@pytest.mark.parametrize("mode", ["layerings", "orderings", "theory"])
def test_dot_output_is_only_for_the_flow_graph(files, capsys, mode):
    code, out = call(capsys, "flow", mode, files["horiz"], "--k", "0", "--output", "dot")
    assert (code, out) == (2, error_out("--output dot is only available for flow graph"))


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "round"],
        ["check", "atom"],
        ["check", "frame-acyclic"],
        ["flow", "graph", "--k", "0"],
        ["sd"],
        ["export", "--dot", "flow"],
        ["make", "suspend"],
    ],
    ids=" ".join,
)
def test_a_query_of_a_molecule_refuses_a_poset_that_is_not_one(files, capsys, argv):
    code, out = call(capsys, *argv, files["sphere"])
    assert (code, out) == (2, error_out("input poset is not a molecule"))


def test_make_help_names_every_target_with_its_arity(capsys):
    """The help string is the only spelling of the targets besides
    ``_MAKE_TARGETS``: it names each target once, in a piece ``TARGET ARG
    ...`` with one word per argument."""
    parser = cli._SubcommandParser(prog="dcx make")
    cli._args_make(parser)
    (what,) = [action for action in parser._actions if action.dest == "what"]
    pieces = [piece.split() for piece in what.help.split(" | ")]
    named = {piece[0]: len(piece) - 1 for piece in pieces}
    assert len(named) == len(pieces)
    assert named == {target: arity for target, arity, _, _ in cli._MAKE_TARGETS}
    assert run(["make", "--help"]) == 0
    assert what.help in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", USAGE_CASES, ids=" ".join)
def test_run_matches_the_full_parser(files, capsys, monkeypatch, argv):
    """A freshly built parser is the oracle: two runs on the shared parser
    give its exit code, stdout and stderr."""
    argv = [files["horiz"] if arg == "FILE" else arg for arg in argv]
    shared = [(run(argv), *capsys.readouterr()) for _ in range(2)]
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    fresh = (run(argv), *capsys.readouterr())
    assert shared == [fresh, fresh]
    assert fresh[0] == (0 if "--help" in argv else 2)


def golden_argvs():
    manifest = Path(__file__).resolve().parent / "golden" / "manifest.json"
    return [entry["argv"] for entry in json.loads(manifest.read_text(encoding="utf-8"))]


@pytest.fixture
def parsers_built(monkeypatch):
    """The ``prog`` of every ArgumentParser constructed from here on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def no_full_parser():
    raise AssertionError("the full parser was built")


def test_run_builds_no_parser(parsers_built):
    """Every golden command line is parsed by the parser built at import."""
    from test_golden import run_command

    with contextlib.redirect_stderr(io.StringIO()):
        for argv in golden_argvs():
            run_command(argv)
    assert parsers_built == []


def test_golden_argv_parse_as_with_the_full_parser():
    """The shared parser, after every golden command line before it, parses
    each one as a freshly built full parser does, twice in a row."""
    full = cli.build_parser()
    for argv in golden_argvs():
        want = vars(full.parse_args(argv))
        assert vars(cli._PARSER.parse_args(argv)) == want, argv
        assert vars(cli._PARSER.parse_args(argv)) == want, argv


def test_a_query_builds_only_its_own_parser(files, capsys, monkeypatch, parsers_built):
    """A query of each subcommand runs on the parser built at import: it
    neither calls ``build_parser`` nor constructs any other parser."""
    monkeypatch.setattr(cli, "build_parser", no_full_parser)
    horiz = files["horiz"]
    for argv in (
        ["check", "molecule", horiz],
        ["check", "frame-acyclic", horiz],
        ["flow", "graph", "--k", "0", horiz],
        ["sd", "--levels", "0", horiz],
        ["make", "globe", "2"],
        ["cx", "verify", files["triangle"]],
        ["export", "--dot", "hasse", horiz],
    ):
        assert call(capsys, *argv)[0] == 0, argv
    assert parsers_built == []


def test_a_parse_leaves_no_state_for_the_next(files, capsys):
    """Options and defaults of one command line do not carry over to the
    next, and a refused one leaves intermixed parsing on: the file after
    ``--k`` is read only by an intermixed parse."""
    horiz = files["horiz"]
    graph = ["flow", "graph", "--k", "1", horiz]
    assert call(capsys, *graph)[0] == 0
    assert run(["flow", "graph", horiz]) == 2
    assert "the following arguments are required: --k" in capsys.readouterr().err
    assert call(capsys, *graph)[0] == 0
    code, out = call(capsys, "sd", "--report", horiz)
    assert code == 0 and "theta_counts" not in json.loads(out)
    code, out = call(capsys, "sd", horiz)
    assert code == 0 and set(json.loads(out)) == {"levels", "size", "sd_size", "theta_counts"}


def subcommand_parser(name, add):
    parser = cli._SubcommandParser(prog=f"dcx {name}")
    add(parser)
    return parser


def uncovered_choices(subcommands, argvs):
    """The (subcommand, destination, value) of every argparse choice that no
    argv of that subcommand parses to.  An argv that omits an option parses
    to its default, so a default needs no argv of its own."""
    out = []
    for name, _, add in subcommands:
        parser = subcommand_parser(name, add)
        parsed = []
        for argv in argvs:
            if argv[0] != name:
                continue
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    parsed.append(parser.parse_args(argv[1:]))
            except SystemExit:
                continue
        for action in parser._actions:
            for value in action.choices or ():
                if all(getattr(args, action.dest) != value for args in parsed):
                    out.append((name, action.dest, value))
    return out


def test_every_choice_has_a_golden_entry():
    """So a mode without a golden command cannot ship: every mode that a
    subcommand's table lists, and so its parser offers, is run by at least
    one golden command."""
    argvs = golden_argvs()
    assert uncovered_choices(cli._SUBCOMMANDS, argvs) == []
    choices = {
        name: sum(len(action.choices or ()) for action in subcommand_parser(name, add)._actions)
        for name, _, add in cli._SUBCOMMANDS
    }
    assert choices == {"make": 0, "check": 5, "flow": 6, "sd": 0, "cx": 4, "export": 3}


def test_uncovered_choices_finds_a_mode_without_an_entry():
    def args_check(p):
        p.add_argument("property", choices=["molecule", "no-golden-entry"])
        p.add_argument("--output", choices=["json", "dot"], default="json")

    subcommands = [("check", "", args_check)]
    argvs = [["check", "molecule"], ["check", "bogus"], ["flow", "no-golden-entry"]]
    assert uncovered_choices(subcommands, argvs) == [
        ("check", "property", "no-golden-entry"),
        ("check", "output", "dot"),
    ]


def test_top_level_help_and_usage_errors(capsys):
    assert [name for name, _, _ in cli._SUBCOMMANDS] == SUBCOMMAND_NAMES
    code, out = call(capsys, "--help")
    assert code == 0
    assert "{" + ",".join(SUBCOMMAND_NAMES) + "}" in out
    for name, help_text, _ in cli._SUBCOMMANDS:
        assert f"    {name}" in out and help_text in out
    assert run([]) == 2
    assert "required: command" in capsys.readouterr().err
    assert run(["nosuch"]) == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize("name", SUBCOMMAND_NAMES)
def test_each_subcommand_exits_2_on_a_usage_error(capsys, name):
    assert run([name, "--no-such-option"]) == 2
    assert capsys.readouterr().err.startswith("usage: dcx")
