"""The command line: exit codes 0/1/2 and argument order."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcx
from dcx import path, serialize
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
    put("garbage", "{not json")
    simplex = SemiSimplicialSet.standard_simplex(2)
    put("simplex", serialize.dumps_ssset(simplex))
    # cells named by shape spec: a replayed certificate numbers the
    # elements of the 2-simplex differently from its attachment map
    data = serialize.dcomplex_to_data(import_ssset(simplex))
    for d, level in enumerate(data["cells"]):
        for entry in level:
            entry["shape"] = f"oriental:{d}"
    put("triangle", serialize.dumps_json(data))
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


def test_sd_options_before_or_after_file(files, capsys):
    before = call(capsys, "sd", "--levels", "0", files["horiz"])
    after = call(capsys, "sd", files["horiz"], "--levels", "0")
    assert before[0] == after[0] == 0
    assert before[1] == after[1]
    assert json.loads(before[1])["levels"] == [0]
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
