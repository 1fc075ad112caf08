"""Directed complexes: file round trips, the attachment checks and pasting."""
import collections
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dcx
from dcx import dcomplex, flow, molecule, ogposet, serialize
from dcx.dcomplex import (
    Cell,
    DirectedComplex,
    PastingDiagram,
    SemiSimplicialSet,
    Verdict,
    atoms_acyclic,
    boundary_diagram,
    enumerate_molecules,
    has_frame_acyclic_molecules,
    import_ssset,
    paste_diagrams,
    skeleton,
)
from dcx.errors import (
    BoundaryMismatchError,
    IncompatibleAttachmentError,
    LabelMismatchError,
    PreconditionError,
)
from dcx.molecule import globe, oriental, point
from conftest import oracle_find_iso

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def simplex_complex(n):
    return import_ssset(SemiSimplicialSet.standard_simplex(n))


def one_loop():
    """One vertex and one edge from it to itself: not regular."""
    return import_ssset(SemiSimplicialSet([1, [[0, 0]]]))


def two_loops():
    """Two vertices, an edge each way between them and a loop on one."""
    return import_ssset(SemiSimplicialSet([2, [[0, 1], [1, 0], [0, 0]]]))


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


def test_only_elements_are_labelled():
    X = simplex_complex(1)
    for stray, target in [((7, 3), (0, 0)), ((0, 5), (0, 1))]:
        assert incompatible(edited(X, (1, 0), {stray: target})) == (
            f"cell (1, 0): {stray} has a label but is not an element of the shape"
        )
    edge = PastingDiagram.single(X, (1, 0))
    labels = {**edge.labels, (0, 2): (0, 1)}
    assert "(0, 2) has a label but is not an element" in mislabelled(X, edge.shape, labels)


def test_an_attach_names_each_element_once():
    doc = serialize.dcomplex_to_data(simplex_complex(1))
    doc["cells"][1][0]["attach"]["00.0"] = "0.0"
    with pytest.raises(dcx.DcxError) as info:
        serialize.dcomplex_from_data(doc)
    assert str(info.value) == "cell (1,0) has an attach that names one element twice"


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


# -- importing semi-simplicial sets -------------------------------------------------------


def random_ssset(rng):
    """A random valid semi-simplicial set of dimension at most 3 on at most
    3 vertices.  Each simplex takes its faces one at a time, each chosen
    among those that keep the simplicial identities with the faces before
    it, so loops and simplices sharing faces are common; a simplex with no
    such choice left is dropped."""
    table = [rng.randint(1, 3)]
    for d in range(1, rng.randint(1, 3) + 1):
        below = table[0] if d == 1 else len(table[d - 1])
        level = []
        for _ in range(rng.randint(1, 4)):
            row = []
            for j in range(d + 1):
                face = table[d - 1]  # face[t][i]: the i-th face of the (d-1)-simplex t
                fits = [
                    t for t in range(below)
                    if d == 1 or all(face[t][i] == face[row[i]][j - 1] for i in range(j))
                ]
                if not fits:
                    break
                row.append(rng.choice(fits))
            if len(row) == d + 1:
                level.append(row)
        if not level:
            break
        table.append(level)
    return SemiSimplicialSet(table).validate()


def import_inputs():
    """The standard 0- to 5-simplices, the golden ssset/1 inputs and 300
    seeded random semi-simplicial sets."""
    found = [SemiSimplicialSet.standard_simplex(n) for n in range(6)]
    found += [serialize.loads_ssset(p.read_text(encoding="utf-8"))
              for p in sorted(GOLDEN_INPUTS.glob("*.ssset.json"))]
    rng = random.Random(41)
    return found + [random_ssset(rng) for _ in range(300)]


def test_imported_complexes_are_valid():
    """import_ssset builds without checking; the check, which runs
    restriction_problem on every cell, and the isomorphism search oracle
    pass on every cell of what it builds."""
    irregular = 0
    for S in import_inputs():
        X = import_ssset(S).validate()
        assert [len(level) for level in X.cells] == [S.count(d) for d in range(S.dim + 1)]
        for cid in X.cell_ids():
            cell = X.cell(cid)
            assert oracle_restriction_problem(X, cell.shape.poset, cell.attach) is None
        irregular += not X.is_regular()
    assert irregular > 100


@pytest.mark.parametrize("n", [-1, -5])
def test_standard_simplex_of_a_negative_size_raises(n):
    with pytest.raises(PreconditionError, match=f"standard_simplex needs a size >= 0, got {n}"):
        SemiSimplicialSet.standard_simplex(n)


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


def oracle_restriction_problem(X, P, labels):
    """The attachment check by extraction and an isomorphism search: each
    closure is extracted as a poset, matched with its cell's shape by
    ``oracle_find_iso``, and its labels are read through that isomorphism."""
    for el in P.elements():
        cid = labels.get(el)
        if cid is None:
            return f"element {el} has no cell"
        if cid[0] != el[0]:
            return f"element {el} maps to a cell of another dimension"
        if not (0 <= cid[0] < len(X.cells) and 0 <= cid[1] < len(X.cells[cid[0]])):
            return f"element {el} maps to {cid}, which does not exist"
    stray = set(labels).difference(P.elements())
    if stray:
        return f"{min(stray)} has a label but is not an element of the shape"
    for el in P.elements():
        cell = X.cell(labels[el])
        clq, amb = P.extract(P.cl_el[P.pos(el)])
        iso = oracle_find_iso(cell.shape.poset, clq)
        if iso is None:
            return f"element {el} is not shaped like its cell"
        for e in cell.shape.poset.elements():
            if labels[amb[iso[e]]] != cell.attach[e]:
                return f"labelling around {el} does not restrict to the attachment"
    return None


def mixed_complex():
    """One vertex, a loop on it, a 2-globe and a triangle on the loop, and a
    3-simplex whose faces are all the triangle: two 2-cells of different
    shapes."""
    cells = [[], [], [], []]
    for shape, face in ((point(), None), (globe(1), None), (globe(2), None),
                        (oriental(2), None), (oriental(3), (2, 1))):
        low = {0: (0, 0), 1: (1, 0), 2: face}
        attach = {el: low[el[0]] for el in shape.poset.elements() if el[0] < shape.dim}
        attach[shape.greatest()] = (shape.dim, len(cells[shape.dim]))
        cells[shape.dim].append(Cell(shape, attach))
    return DirectedComplex(cells).validate()


def restriction_cases():
    """(complex, poset, labels): every cell of the complexes of the 0- to
    5-simplex and every diagram with at most 3 top cells over the
    4-simplex, each with seeded wrong labellings, and every labelling of a
    cell of :func:`mixed_complex` changed at one element to a cell of the
    element's dimension, or given a label on a key that is no element."""
    rng = random.Random(35)
    X = simplex_complex(4)
    found = [(Y, Y.cell(cid).shape.poset, Y.cell(cid).attach)
             for Y in map(simplex_complex, range(6)) for cid in Y.cell_ids()]
    found += [(X, diag.shape.poset, diag.labels) for diag in enumerate_molecules(X, 3)]
    for Y, P, labels in list(found):
        found += [(Y, P, wrong) for wrong in perturbed(Y, P, labels, rng)]
    X = mixed_complex()
    for cid in X.cell_ids():
        P, labels = X.cell(cid).shape.poset, X.cell(cid).attach
        for el in P.elements():
            found += [(X, P, {**labels, el: (el[0], i)}) for i in range(len(X.cells[el[0]]))]
        for stray in ((0, P.counts[0]), (P.dim + 1, 0)):
            found.append((X, P, {**labels, stray: (0, 0)}))
    return found


def perturbed(X, P, labels, rng):
    """Seeded wrong labellings: two labels of one dimension swapped, and one
    label replaced by another cell of its dimension and by a cell of
    another dimension."""
    els = list(P.elements())
    by_dim = {}
    for el in els:
        by_dim.setdefault(el[0], []).append(el)
    pairs = [ms for ms in by_dim.values() if len(ms) > 1]
    if pairs:
        a, b = rng.sample(rng.choice(pairs), 2)
        yield {**labels, a: labels[b], b: labels[a]}
    el = rng.choice(els)
    yield {**labels, el: (el[0], rng.randrange(len(X.cells[el[0]])))}
    others = [d for d in range(len(X.cells)) if d != el[0]]
    if others:
        d = rng.choice(others)
        yield {**labels, el: (d, rng.randrange(len(X.cells[d])))}


KINDS = ("not shaped", "another dimension", "does not restrict", "not an element")


def test_restriction_check_matches_the_isomorphism_search_oracle():
    """The check by canonical records gives the oracle's message, or None,
    on every case of :func:`restriction_cases`."""
    kinds = collections.Counter()
    for X, P, labels in restriction_cases():
        problem = dcomplex.restriction_problem(X, P, labels)
        assert problem == oracle_restriction_problem(X, P, labels), (P, labels)
        kinds[problem and next(k for k in KINDS if k in problem)] += 1
    assert set(kinds) == {None, *KINDS} and sum(kinds.values()) > 800


def test_attachment_checks_and_pasting_extract_nothing_and_search_no_isomorphism(monkeypatch):
    # closures, shapes and boundaries are compared by their canonical
    # records, read in place
    def refuse(*args):
        raise AssertionError("extraction or isomorphism search")

    monkeypatch.setattr(dcx.ogposet.OgPoset, "extract", refuse)
    monkeypatch.setattr(dcx.ogposet, "isomorphisms", refuse)
    X = simplex_complex(4)
    assert len(enumerate_molecules(X, 3)) == 90


def test_paste_diagrams_errors():
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
    with pytest.raises(BoundaryMismatchError, match="does not match the input 1-boundary"):
        paste_diagrams(PastingDiagram.single(X, (2, 0)), e12, 1)
    with pytest.raises(BoundaryMismatchError, match=">= 0"):
        paste_diagrams(e01, e12, -1)


@pytest.mark.parametrize("n", [2, 3])
def test_each_paste_matches_boundaries_once(n, monkeypatch):
    """paste_diagrams matches the two k-boundaries once per call, whether
    the pasting succeeds or fails on shapes or labels."""
    pool = enumerate_molecules(simplex_complex(n), 2)
    real_glue = molecule.boundary_glue
    glues = []

    def recording(*args):
        glues.append(args)
        return real_glue(*args)

    monkeypatch.setattr(molecule, "boundary_glue", recording)
    outcomes = set()
    for f in pool:
        for g in pool:
            for k in range(max(f.dim, g.dim)):
                before = len(glues)
                try:
                    paste_diagrams(f, g, k)
                    outcomes.add("pasted")
                except (BoundaryMismatchError, LabelMismatchError) as exc:
                    outcomes.add(type(exc).__name__)
                assert len(glues) - before == 1, (f, g, k)
    assert outcomes == {"pasted", "BoundaryMismatchError", "LabelMismatchError"}


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
                iso = oracle_find_iso(bf.shape.poset, bg.shape.poset)
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


# -- the pool closure ------------------------------------------------------------------


def all_pairs_closure(X, max_cells, max_elements):
    """The closure by brute force: every ordered pair of pool diagrams,
    pasted at every level below the larger dimension, until nothing new."""
    pool = {}
    order = []
    for cid in X.cell_ids():
        diag = PastingDiagram.single(X, cid)
        if diag.top_cell_count() <= max_cells and diag.shape.size() <= max_elements:
            if diag.key not in pool:
                pool[diag.key] = diag
                order.append(diag)
    frontier = list(order)
    while frontier:
        fresh = []
        for new in frontier:
            for other in list(order):
                for left, right in ((new, other), (other, new)):
                    for k in range(max(left.dim, right.dim)):
                        try:
                            h = paste_diagrams(left, right, k)
                        except (BoundaryMismatchError, LabelMismatchError):
                            continue
                        if h.top_cell_count() > max_cells:
                            continue
                        if h.shape.size() > max_elements:
                            continue
                        if h.key in pool:
                            continue
                        pool[h.key] = h
                        order.append(h)
                        fresh.append(h)
        frontier = fresh
    return sorted(order, key=lambda d: d.key)


def representation(diag):
    return (diag.key, diag.shape.poset.faces, sorted(diag.labels.items()))


CLOSURE_INPUTS = {
    **{
        f"simplex{n}-{mc}": (lambda n=n: simplex_complex(n), mc, 2000)
        for n in (1, 2, 3)
        for mc in (1, 2, 3)
    },
    "one_loop-4": (one_loop, 4, 14),
    "two_loops-3": (two_loops, 3, 20),
}


@pytest.mark.parametrize("case", CLOSURE_INPUTS)
def test_enumerate_molecules_matches_all_pairs_oracle(case, monkeypatch):
    make, max_cells, max_elements = CLOSURE_INPUTS[case]
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", str(max_elements))
    X = make()
    got = enumerate_molecules(X, max_cells)
    expected = all_pairs_closure(X, max_cells, max_elements)
    assert [representation(d) for d in got] == [representation(d) for d in expected]


@pytest.mark.parametrize("case", ["simplex1-3", "simplex2-3", "simplex3-3", "one_loop-4"])
def test_boundary_keys_decide_pasting(case, monkeypatch):
    """Below the smaller dimension, boundary keys agree exactly when the
    pasting succeeds; at or above it, a pasting gives back an operand."""
    make, max_cells, max_elements = CLOSURE_INPUTS[case]
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", str(max_elements))
    pool = enumerate_molecules(make(), max_cells)
    for f in pool:
        for k in range(f.dim):
            for side in "-+":
                assert f._boundary_key(k, side) == boundary_diagram(f, k, side).key
    checked = 0
    for f in pool:
        for g in pool:
            for k in range(max(f.dim, g.dim)):
                try:
                    pasted = paste_diagrams(f, g, k)
                except (BoundaryMismatchError, LabelMismatchError):
                    pasted = None
                if k < min(f.dim, g.dim):
                    keys_agree = f._boundary_key(k, "+") == g._boundary_key(k, "-")
                    assert keys_agree == (pasted is not None), (f, g, k)
                    checked += 1
                elif pasted is not None:
                    assert pasted.key in (f.key, g.key), (f, g, k)
    assert checked


def recorded_pastes(monkeypatch, *args):
    """The (left key, right key, k) of every pasting that enumerate_molecules
    attempts on these arguments, checking that each attempt is below both
    dimensions and succeeds."""
    real = dcomplex.paste_diagrams
    attempts = []

    def recording(f, g, k):
        assert k < min(f.dim, g.dim), (f, g, k)
        attempts.append((f.key, g.key, k))
        try:
            return real(f, g, k)
        except (BoundaryMismatchError, LabelMismatchError) as exc:
            pytest.fail(f"pasting at level {k} failed: {exc}")

    with monkeypatch.context() as patch:
        patch.setattr(dcomplex, "paste_diagrams", recording)
        enumerate_molecules(*args)
    return attempts


def test_index_pastes_only_matching_pairs_once_per_level(monkeypatch):
    attempts = recorded_pastes(monkeypatch, simplex_complex(3), 3)
    assert attempts
    tried = [(frozenset((f, g)), k) for f, g, k in attempts]
    assert len(set(tried)) == len(tried)
    # with cycles both orders of a pair can paste, each once
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "20")
    attempts = recorded_pastes(monkeypatch, two_loops(), 3)
    assert len(set(attempts)) == len(attempts)
    assert len({(frozenset((f, g)), k) for f, g, k in attempts}) < len(attempts)


@pytest.mark.parametrize("error", [BoundaryMismatchError, LabelMismatchError])
def test_a_failed_pasting_in_the_closure_raises(error, monkeypatch):
    """The index pairs diagrams only when their labelled boundary keys
    agree, and such pairs always paste, so the closure does not catch a
    failed pasting: it raises instead of dropping the diagram."""

    def failing(f, g, k):
        raise error("refused")

    monkeypatch.setattr(dcomplex, "paste_diagrams", failing)
    with pytest.raises(error):
        enumerate_molecules(simplex_complex(2), 2)


def fresh_keys_closure(X, max_cells):
    """The semi-naive closure with every boundary key read from the
    diagram's shape and every matching pair pasted, whatever its top-cell
    count: the pool before pastings inherited keys and over-cap pairs were
    skipped."""
    max_elements = dcomplex.element_limit()
    pool, order = {}, []

    def admit(diag):
        if diag.top_cell_count() <= max_cells and diag.shape.size() <= max_elements:
            if diag.key not in pool:
                pool[diag.key] = diag
                order.append(diag)

    for cid in X.cell_ids():
        admit(PastingDiagram.single(X, cid))
    index = {}
    for new in order:
        for k in range(new.dim):
            source, target = new._boundary_key(k, "-"), new._boundary_key(k, "+")
            before = list(index.get((k, "+", source), ()))
            index.setdefault((k, "-", source), []).append(new)
            index.setdefault((k, "+", target), []).append(new)
            pairs = [(new, other) for other in index.get((k, "-", target), ())]
            for left, right in pairs + [(other, new) for other in before]:
                try:
                    admit(paste_diagrams(left, right, k))
                except (BoundaryMismatchError, LabelMismatchError):
                    pass
    return sorted(order, key=lambda d: d.key)


# (complex, max_cells, DCX_ELEMENT_LIMIT): the simplices to the 4-simplex,
# and the complex with loops, where the limit bounds the closure
POOL_INPUTS = {
    **{f"simplex{n}-{mc}": (simplex_complex, n, mc, 2000) for n in range(5) for mc in (1, 2, 3)},
    **{f"mixed-{mc}": (lambda _: mixed_complex(), None, mc, 12) for mc in (1, 2, 3)},
}


@pytest.mark.parametrize("case", POOL_INPUTS)
def test_inherited_boundary_keys_are_the_keys_read_afresh(case, monkeypatch):
    """Every diagram of the pool carries, for each level below its
    dimension, the keys its shape gives, and the pool is the one found with
    every key read afresh and no pair skipped before pasting."""
    make, arg, max_cells, limit = POOL_INPUTS[case]
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", str(limit))
    X = make(arg)
    pool = dcomplex._closure(X, max_cells)
    for diag, bounds in pool:
        fresh = [(diag._boundary_key(k, "-"), diag._boundary_key(k, "+")) for k in range(diag.dim)]
        assert bounds == fresh, diag
    assert len(pool) > X.n_cells() or max_cells == 1 or X.dim < 2
    got = enumerate_molecules(X, max_cells)
    assert [d.key for d in got] == sorted(diag.key for diag, _ in pool)
    expected = fresh_keys_closure(X, max_cells)
    assert [representation(d) for d in got] == [representation(d) for d in expected]


# (complex, max_cells, DCX_ELEMENT_LIMIT, distinct face tables in the pool)
SHARING_INPUTS = {
    "simplex3-3": (lambda: simplex_complex(3), 3, 2000, 10),
    "simplex4-3": (lambda: simplex_complex(4), 3, 2000, 35),
    "mixed-3": (mixed_complex, 3, 12, 54),
    "two_loops-3": (two_loops, 3, 20, 4),
}


@pytest.mark.parametrize("case", SHARING_INPUTS)
def test_pool_diagrams_of_one_face_table_share_one_poset(case, monkeypatch):
    """Diagrams with equal face tables share one shape poset, and each keeps
    the certificate of its own pasting, which replays to its shape."""
    make, max_cells, limit, shapes = SHARING_INPUTS[case]
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", str(limit))
    X = make()
    pool = [diag for diag, _ in dcomplex._closure(X, max_cells)]
    by_table = {}
    for diag in pool:
        P = diag.shape.poset
        by_table.setdefault((P.counts, P.faces), []).append(diag)
        assert molecule.replay(diag.shape.cert).key == diag.shape.key, diag
    for diags in by_table.values():
        assert all(d.shape.poset is diags[0].shape.poset for d in diags)
    assert len({id(d.shape.poset) for d in pool}) == len(by_table) == shapes
    got = [d.shape.cert for d in sorted(pool, key=lambda d: d.key)]
    assert got == [d.shape.cert for d in fresh_keys_closure(X, max_cells)]


@pytest.mark.parametrize("max_cells, searches", [(2, 92), (3, 108)])
def test_closure_searches_each_shape_once(max_cells, searches, monkeypatch):
    """The canonical searches of a pool over the 4-simplex: one per distinct
    (face table, subset), not one per diagram (138 and 179 searches when
    each pasting kept its own poset)."""
    calls = []
    search = ogposet._canonical_form

    def counted(counts, faces):
        calls.append((counts, faces))
        return search(counts, faces)

    X = simplex_complex(4)
    monkeypatch.setattr(ogposet, "_canonical_form", counted)
    pool = enumerate_molecules(X, max_cells)
    assert len(pool) == {2: 79, 3: 90}[max_cells]
    assert len(calls) <= searches


# -- helpers and the frame-acyclicity verdict ----------------------------------------------


def test_loops_are_not_regular_nor_locally_injective(monkeypatch):
    assert simplex_complex(3).is_regular()
    X = one_loop()
    assert not X.is_regular()
    monkeypatch.setenv("DCX_ELEMENT_LIMIT", "10")
    pool = enumerate_molecules(X, 2)
    assert [d.is_locally_injective() for d in pool] == [True, False, False]


def test_skeleton_keeps_the_low_cells():
    X = simplex_complex(3)
    assert [len(level) for level in skeleton(X, 1).validate().cells] == [4, 6]
    assert skeleton(X, 5).n_cells() == X.n_cells() == 15
    assert skeleton(X, -1).dim == -1


@pytest.mark.parametrize("bound", [0, -1])
def test_non_positive_cell_bounds_raise(bound):
    X = simplex_complex(2)
    with pytest.raises(PreconditionError, match="max_cells must be at least 1"):
        enumerate_molecules(X, bound)
    # raised before the proofs that would ignore the budget
    assert atoms_acyclic(X)
    with pytest.raises(PreconditionError, match="budget must be at least 1"):
        has_frame_acyclic_molecules(X, bound)
    assert len(enumerate_molecules(X, 1)) == X.n_cells()


def test_frame_acyclic_verdicts(monkeypatch):
    verdict = has_frame_acyclic_molecules(simplex_complex(3))
    assert atoms_acyclic(simplex_complex(3))
    assert verdict.kind == Verdict.PROVEN_BY_ACYCLIC_ATOMS and verdict.is_proof()
    assert verdict.to_json() == {"verdict": "proven_by_acyclic_atoms"}
    monkeypatch.setattr(dcomplex, "atoms_acyclic", lambda X: False)
    verdict = has_frame_acyclic_molecules(simplex_complex(3))
    assert verdict.kind == Verdict.PROVEN_BY_DIMENSION and verdict.is_proof()
    verdict = has_frame_acyclic_molecules(simplex_complex(4), 2)
    assert not verdict.is_proof()
    assert verdict.to_json() == {"verdict": "checked_up_to_budget", "budget": 2}
    monkeypatch.setattr(dcomplex, "is_frame_acyclic", lambda shape: shape.dim < 2)
    verdict = has_frame_acyclic_molecules(simplex_complex(4), 2)
    assert verdict.kind == Verdict.COUNTEREXAMPLE and verdict.diagram.dim == 2
    assert verdict.to_json() == {
        "verdict": "counterexample",
        "counterexample_shape": list(verdict.diagram.shape.counts),
    }


def test_budget_check_decides_each_shape_once(monkeypatch):
    """With the proofs out of the way, the verdict scans every diagram of
    the budget, deciding frame-acyclicity once per distinct face table."""
    X = simplex_complex(4)
    tables = {(d.shape.counts, d.shape.poset.faces) for d in enumerate_molecules(X, 3)}
    scans = []
    closure = flow.candidate_closure_masks

    def counted(P, masks):
        scans.append(P.faces)
        return closure(P, masks)

    monkeypatch.setattr(dcomplex, "atoms_acyclic", lambda X: False)
    monkeypatch.setattr(flow, "candidate_closure_masks", counted)
    verdict = has_frame_acyclic_molecules(simplex_complex(4), 3)
    assert verdict.kind == Verdict.CHECKED_UP_TO_BUDGET and verdict.budget == 3
    assert len(scans) == len(tables) < 90


def generated_complex(P):
    """The directed complex generated by a regular molecule: one cell per
    element, shaped as its closure and attached by inclusion."""
    cells = [[] for _ in P.counts]
    for el in P.elements():
        Q, to_ambient = P.extract(P.cl_el[P.pos(el)])
        cells[el[0]].append(Cell(dcx.Molecule(Q, dcx.is_molecule(Q)), to_ambient))
    return DirectedComplex(cells).validate()


@pytest.mark.parametrize("name", ["cyclic151", "cyclic206"])
def test_a_hasse_cyclic_atom_is_proven_by_dimension(name):
    # a committed Hasse-cyclic 3-atom: no monkeypatch reaches the dimension
    # proof, as the complex's top cell has a Hasse-cyclic shape
    P = serialize.loads_ogposet((GOLDEN_INPUTS / f"{name}.json").read_text(encoding="utf-8"))
    X = generated_complex(P)
    assert X.n_cells() == P.size() and X.dim == 3
    assert not atoms_acyclic(X)
    verdict = has_frame_acyclic_molecules(X)
    assert verdict.kind == Verdict.PROVEN_BY_DIMENSION and verdict.is_proof()
