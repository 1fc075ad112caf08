"""Directed complexes: file round trips, the attachment checks and pasting."""
import subprocess
import sys
from pathlib import Path

import pytest

import dcx
from dcx import dcomplex, serialize
from dcx.dcomplex import (
    Cell,
    DirectedComplex,
    PastingDiagram,
    SemiSimplicialSet,
    boundary_diagram,
    enumerate_molecules,
    import_ssset,
    paste_diagrams,
)
from dcx.errors import (
    BoundaryMismatchError,
    IncompatibleAttachmentError,
    LabelMismatchError,
)
from dcx.molecule import globe, point
from dcx.ogposet import find_iso


def simplex_complex(n):
    return import_ssset(SemiSimplicialSet.standard_simplex(n))


# -- dcomplex/1 ------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_dcomplex_round_trip_is_byte_stable(n):
    text = serialize.dumps_dcomplex(simplex_complex(n))
    again = serialize.dumps_dcomplex(serialize.loads_dcomplex(text))
    assert again == text


def test_import_then_verify_through_a_pipe(tmp_path):
    ss = tmp_path / "simplex.json"
    ss.write_text(serialize.dumps_ssset(SemiSimplicialSet.standard_simplex(3)))
    env = {"PYTHONPATH": str(Path(dcx.__file__).resolve().parents[1])}
    cli = [sys.executable, "-m", "dcx.cli", "cx"]
    made = subprocess.run(
        cli + ["import-ssset", str(ss)], capture_output=True, env=env, timeout=60
    )
    assert made.returncode == 0, made.stderr
    checked = subprocess.run(
        cli + ["verify"], input=made.stdout, capture_output=True, env=env, timeout=60
    )
    assert checked.returncode == 0, checked.stdout + checked.stderr


def test_shapes_named_by_spec_load():
    # a spec names the shape itself, so the attachment maps keep its numbering
    X = simplex_complex(2)
    cells = [
        [
            {
                "shape": f"oriental:{d}",
                "attach": {f"{a}.{b}": f"{c}.{e}" for (a, b), (c, e) in cell.attach.items()},
            }
            for cell in level
        ]
        for d, level in enumerate(X.cells)
    ]
    Y = serialize.loads_dcomplex(serialize.dumps_json({"format": "dcomplex/1", "cells": cells}))
    assert [len(level) for level in Y.cells] == [3, 3, 1]


# -- attachment checks ----------------------------------------------------------------


def edited(X, cid, changes):
    """A copy of X with the attachment of one cell changed; a change to
    ``None`` removes the entry."""
    cells = [list(level) for level in X.cells]
    cell = X.cell(cid)
    attach = dict(cell.attach)
    for el, target in changes.items():
        if target is None:
            del attach[el]
        else:
            attach[el] = target
    cells[cid[0]][cid[1]] = Cell(cell.shape, attach)
    return DirectedComplex(cells)


def incompatible(X):
    with pytest.raises(IncompatibleAttachmentError) as info:
        X.validate()
    return str(info.value)


def test_cell_of_the_wrong_dimension():
    X = simplex_complex(1)
    cells = [list(level) for level in X.cells]
    cells[1].append(Cell(point(), {(0, 0): (1, 1)}))
    assert "has a shape of dimension 0" in incompatible(DirectedComplex(cells))


def test_greatest_element_must_attach_to_its_cell():
    X = simplex_complex(2)
    assert "greatest element" in incompatible(edited(X, (1, 2), {(1, 0): (1, 0)}))
    assert "greatest element" in incompatible(edited(X, (1, 2), {(1, 0): None}))


def test_every_element_attaches_to_an_existing_cell_of_its_dimension():
    X = simplex_complex(1)
    assert "has no cell" in incompatible(edited(X, (1, 0), {(0, 1): None}))
    assert "another dimension" in incompatible(edited(X, (1, 0), {(0, 1): (1, 0)}))
    for missing in [(0, 5), (0, -1)]:
        message = incompatible(edited(X, (1, 0), {(0, 1): missing}))
        assert "does not exist" in message


def test_faces_shaped_like_their_cells():
    # a 3-globe whose 2-dimensional faces land on the triangle
    X = simplex_complex(2)
    G = globe(3)
    (src,), (tgt,) = G.poset.faces[1][0]
    attach = {(0, src): (0, 0), (0, tgt): (0, 2), (3, 0): (3, 0)}
    attach.update({(1, i): (1, 1) for i in range(2)})
    attach.update({(2, i): (2, 0) for i in range(2)})
    Y = DirectedComplex([list(level) for level in X.cells] + [[Cell(G, attach)]])
    assert "(2, 0) is not shaped like its cell" in incompatible(Y)


def test_attachments_commute_with_faces():
    X = simplex_complex(2)
    swapped = edited(X, (2, 0), {(1, 0): (1, 2), (1, 2): (1, 0)})
    assert "does not restrict to the attachment" in incompatible(swapped)


# -- pasting diagrams -------------------------------------------------------------------


def mislabelled(X, shape, labels):
    with pytest.raises(LabelMismatchError) as info:
        PastingDiagram(X, shape, labels).validate()
    return str(info.value)


def test_diagram_labels_name_existing_cells():
    X = simplex_complex(1)
    edge = PastingDiagram.single(X, (1, 0))
    assert edge.validate() is edge
    for bad in [(1, 5), (1, -1)]:
        labels = dict(edge.labels)
        labels[(1, 0)] = bad
        assert "does not exist" in mislabelled(X, edge.shape, labels)
    labels = dict(edge.labels)
    del labels[(0, 0)]
    assert "has no cell" in mislabelled(X, edge.shape, labels)
    labels = dict(edge.labels)
    labels[(0, 0)] = (1, 0)
    assert "another dimension" in mislabelled(X, edge.shape, labels)


def test_diagram_elements_shaped_like_their_cells():
    X = simplex_complex(2)
    G = globe(2)
    (src,), (tgt,) = G.poset.faces[1][0]
    labels = {(0, src): (0, 0), (0, tgt): (0, 2), (1, 0): (1, 1), (1, 1): (1, 1)}
    labels[(2, 0)] = (2, 0)
    assert "is not shaped like its cell" in mislabelled(X, G, labels)


def test_diagram_labels_restrict_to_attachments():
    X = simplex_complex(1)
    edge = PastingDiagram.single(X, (1, 0))
    labels = dict(edge.labels)
    labels[(0, 0)], labels[(0, 1)] = labels[(0, 1)], labels[(0, 0)]
    assert "does not restrict" in mislabelled(X, edge.shape, labels)


def test_paste_diagrams_errors(monkeypatch):
    X = simplex_complex(2)
    e01 = PastingDiagram.single(X, (1, 0))
    e12 = PastingDiagram.single(X, (1, 2))
    other = PastingDiagram.single(simplex_complex(2), (1, 2))
    assert paste_diagrams(e01, e12, 0).validate()
    with pytest.raises(LabelMismatchError, match="different complexes"):
        paste_diagrams(e01, other, 0)
    with pytest.raises(LabelMismatchError, match="boundary labels"):
        paste_diagrams(e12, e01, 0)
    # the output 1-boundary of the triangle has two edges, the input of an edge one
    with pytest.raises(BoundaryMismatchError, match="shapes"):
        paste_diagrams(PastingDiagram.single(X, (2, 0)), e12, 1)
    with pytest.raises(BoundaryMismatchError, match=">= 0"):
        paste_diagrams(e01, e12, -1)
    # a glue map that skips the boundary check leaves the merge to catch it
    monkeypatch.setattr(dcomplex, "boundary_glue", lambda *args: {})
    with pytest.raises(LabelMismatchError, match="glued labels disagree"):
        paste_diagrams(e12, e01, 0)


def test_paste_diagrams_matches_labelled_boundaries():
    """paste_diagrams succeeds exactly when the labelled k-boundaries agree,
    with boundary_diagram and a fresh isomorphism search as the oracle."""
    diagrams = enumerate_molecules(simplex_complex(2), 2)
    outcomes = {"pasted": 0, "shape": 0, "labels": 0}
    for f in diagrams:
        for g in diagrams:
            for k in range(3):
                bf = boundary_diagram(f, k, "+")
                bg = boundary_diagram(g, k, "-")
                iso = find_iso(bf.shape.poset, bg.shape.poset)
                if iso is None:
                    expected = "shape"
                elif any(bf.labels[el] != bg.labels[iso[el]] for el in bf.labels):
                    expected = "labels"
                else:
                    expected = "pasted"
                try:
                    paste_diagrams(f, g, k).validate()
                    got = "pasted"
                except BoundaryMismatchError:
                    got = "shape"
                except LabelMismatchError:
                    got = "labels"
                assert got == expected, (f, g, k)
                outcomes[got] += 1
    assert all(outcomes.values()), outcomes
