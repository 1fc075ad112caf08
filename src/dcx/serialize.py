"""File formats (ogposet/1, dcomplex/1, ssset/1) and DOT export.

JSON documents are written canonically: sorted keys, compact separators,
one trailing newline.  Parsing followed by dumping is therefore
byte-stable after one normalisation pass.  An ogposet/1 or ssset/1 document
that lists more elements than DCX_ELEMENT_LIMIT is refused before anything
is built (:func:`_check_listed`).
"""
from __future__ import annotations

import json

from .dcomplex import (
    Cell,
    DirectedComplex,
    SemiSimplicialSet,
    check_fits,
    check_simplex_fits,
    element_limit,
)
from .errors import BudgetError, DcxError
from .flow import FlowGraph
from .molecule import Molecule, globe, oriental, replay
from .ogposet import El, OgPoset, record_iso, validate


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _el_name(el: El) -> str:
    return f"{el[0]}.{el[1]}"


def _parse_el(name) -> El:
    """The element named ``"d.i"``, both parts ASCII digits."""
    parts = name.split(".") if isinstance(name, str) else ()
    if len(parts) != 2 or not all(part.isascii() and part.isdigit() for part in parts):
        raise DcxError(f'attach entry {name!r} is not an element name "d.i"')
    return (int(parts[0]), int(parts[1]))


def _check_listed(data: dict) -> None:
    """Raise DcxError when an ogposet/1 or ssset/1 document has no
    ``faces`` field, and BudgetError when its raw face table lists more
    elements than DCX_ELEMENT_LIMIT: its count in dimension 0, or the length
    of that list, and the length of each later dimension's list.  Entries of
    any other shape count 0, and the reader refuses them after this check."""
    if "faces" not in data:
        raise DcxError('the document has no "faces" field')
    faces = data["faces"]
    if not isinstance(faces, list) or not faces:
        return
    head = len(faces[0]) if isinstance(faces[0], list) else faces[0]
    size = sum(len(level) for level in faces[1:] if isinstance(level, list))
    size += head if type(head) is int and head > 0 else 0
    limit = element_limit()
    if size > limit:
        raise BudgetError(f"input has {size} elements, over DCX_ELEMENT_LIMIT={limit}")


# -- ogposet/1 -------------------------------------------------------------


def ogposet_to_data(P: OgPoset) -> dict:
    faces: list = [[{} for _ in range(P.counts[0])]] if P.counts else []
    for d in range(1, len(P.counts)):
        faces.append(
            [
                {"-": sorted(mn), "+": sorted(pl)}
                for mn, pl in P.faces[d]
            ]
        )
    return {"format": "ogposet/1", "faces": faces}


def ogposet_from_data(data: dict) -> OgPoset:
    if not isinstance(data, dict) or data.get("format") != "ogposet/1":
        raise DcxError("expected an ogposet/1 document")
    _check_listed(data)
    return validate(data["faces"])


def dumps_ogposet(P: OgPoset) -> str:
    return dumps_json(ogposet_to_data(P))


def loads_ogposet(text: str) -> OgPoset:
    return ogposet_from_data(json.loads(text))


# -- certificates ------------------------------------------------------------


def cert_from_data(data) -> tuple:
    """A certificate read from JSON: a list of a head and its entries, none
    for "point", two for "atom" and three for "paste".  A pasting level
    must be an ``int``, not a ``bool``, a string or a float."""
    if not isinstance(data, (list, tuple)) or not data:
        raise DcxError(f"certificate {data!r} is not a nonempty list")
    head = data[0]
    entries = {"point": 0, "atom": 2, "paste": 3}.get(head) if isinstance(head, str) else None
    if entries is None:
        raise DcxError(f"unknown certificate head {head!r}")
    if len(data) != 1 + entries:
        raise DcxError(f"certificate head {head!r} takes {entries} entries, not {len(data) - 1}")
    if head == "point":
        return ("point",)
    if head == "atom":
        return ("atom", cert_from_data(data[1]), cert_from_data(data[2]))
    if type(data[1]) is not int:
        raise DcxError(f"pasting level {data[1]!r} is not an integer")
    return ("paste", data[1], cert_from_data(data[2]), cert_from_data(data[3]))


# -- dcomplex/1 -----------------------------------------------------------------


def _shape_from_data(spec) -> Molecule:
    """The shape of a cell: a spec such as ``"oriental:3"`` or ``"globe:2"``,
    its size written in ASCII digits, sized before it is built, or a
    certificate read by :func:`cert_from_data`, checked after its replay,
    which builds at most one element per node of the certificate."""
    if isinstance(spec, str):
        what = f"shape {spec!r}"
        kind, _, arg = spec.partition(":")
        if kind not in ("oriental", "globe"):
            raise DcxError(f"unknown shape spec {spec!r}")
        if not (arg.isascii() and arg.isdigit()):
            raise DcxError(f"shape spec {spec!r} needs a non-negative integer after ':'")
        if kind == "oriental":
            check_simplex_fits(what, int(arg))
            return oriental(int(arg))
        check_fits(what, 2 * int(arg) + 1)
        return globe(int(arg))
    U = replay(spec)
    check_fits("a certificate shape", U.size())
    return U


def dcomplex_to_data(X: DirectedComplex) -> dict:
    """A shape is written as its certificate, so each attachment map is
    written for the molecule that replaying the certificate builds.

    Each distinct certificate is replayed once per call.  A shape and its
    replay are isomorphic molecules, so :func:`~dcx.ogposet.record_iso`
    reads the one isomorphism between them off their canonical records.
    """
    replayed: dict = {}  # certificate -> the poset its replay builds
    cells = []
    for level in X.cells:
        row = []
        for cell in level:
            cert, P = cell.shape.cert, cell.shape.poset
            if cert not in replayed:
                replayed[cert] = replay(cert).poset
            R = replayed[cert]
            iso = record_iso(P, P.full_masks(), R, R.full_masks())
            row.append(
                {
                    "shape": cert,
                    "attach": {
                        _el_name(iso[el]): _el_name(cid)
                        for el, cid in sorted(cell.attach.items())
                    },
                }
            )
        cells.append(row)
    return {"format": "dcomplex/1", "cells": cells}


def dcomplex_from_data(data: dict) -> DirectedComplex:
    """A directed complex read from a dcomplex/1 document: a list of cell
    levels, each a list of objects with a ``shape`` and an ``attach``.
    Data of any other shape raises ``DcxError`` naming the field, and the
    cell when there is one, and so does an attach that names one element
    twice, as ``"0.0"`` and ``"00.0"`` do.

    Cells with equal shapes share one: each spec string, and each
    certificate by its :func:`cert_from_data` value, as the writer keys its
    replays, is built once per call.  A string never equals a certificate,
    so a spec is never read as one."""
    if not isinstance(data, dict) or data.get("format") != "dcomplex/1":
        raise DcxError("expected a dcomplex/1 document")
    if "cells" not in data:
        raise DcxError('the document has no "cells" field')
    table = data["cells"]
    if not isinstance(table, list):
        raise DcxError(f"the cell table {table!r} is not a list")
    cells: list[list[Cell]] = []
    shapes: dict = {}  # spec string or certificate -> the shape built for it
    for d, level in enumerate(table):
        if not isinstance(level, list):
            raise DcxError(f"dimension {d} of the cell table is {level!r}, not a list")
        row = []
        for i, entry in enumerate(level):
            if not isinstance(entry, dict):
                raise DcxError(f"cell ({d},{i}) is {entry!r}, not an object")
            for field in ("shape", "attach"):
                if field not in entry:
                    raise DcxError(f'cell ({d},{i}) has no "{field}" field')
            spec = entry["shape"]
            spec = spec if isinstance(spec, str) else cert_from_data(spec)
            if spec not in shapes:
                shapes[spec] = _shape_from_data(spec)
            shape = shapes[spec]
            attach = entry["attach"]
            if not isinstance(attach, dict):
                raise DcxError(f"cell ({d},{i}) has attach {attach!r}, not an object")
            labels = {_parse_el(k): _parse_el(v) for k, v in attach.items()}
            if len(labels) != len(attach):
                raise DcxError(f"cell ({d},{i}) has an attach that names one element twice")
            row.append(Cell(shape, labels))
        cells.append(row)
    return DirectedComplex(cells).validate()


def dumps_dcomplex(X: DirectedComplex) -> str:
    return dumps_json(dcomplex_to_data(X))


def loads_dcomplex(text: str) -> DirectedComplex:
    return dcomplex_from_data(json.loads(text))


# -- ssset/1 -----------------------------------------------------------------------


def ssset_to_data(S: SemiSimplicialSet) -> dict:
    faces: list = [S.n_vertices]
    for level in S.faces:
        faces.append([list(row) for row in level])
    return {"format": "ssset/1", "faces": faces}


def ssset_from_data(data: dict) -> SemiSimplicialSet:
    if not isinstance(data, dict) or data.get("format") != "ssset/1":
        raise DcxError("expected an ssset/1 document")
    _check_listed(data)
    return SemiSimplicialSet(data["faces"]).validate()


def dumps_ssset(S: SemiSimplicialSet) -> str:
    return dumps_json(ssset_to_data(S))


def loads_ssset(text: str) -> SemiSimplicialSet:
    return ssset_from_data(json.loads(text))


# -- DOT export ----------------------------------------------------------------------


def _dot_graph(name: str, vertices, edges) -> str:
    lines = [f"digraph {name} {{"]
    for v in vertices:
        lines.append(f'  "{_el_name(v)}";')
    for a, b in edges:
        lines.append(f'  "{_el_name(a)}" -> "{_el_name(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_hasse(P: OgPoset) -> str:
    return _dot_graph("hasse", P.elements(), P.hasse_edges())


def dot_flow(fg: FlowGraph) -> str:
    return _dot_graph("flow", fg.vertices, sorted(fg.edges))


def dot_sd(sdp) -> str:
    """Hasse diagram of the initial subdivision poset."""
    lines = ["digraph sd {"]
    for i, sub in enumerate(sdp.elements):
        label = f"sd{i}" + ("*" if i == sdp.bottom else "")
        shape = "x".join(str(c) for c in sub.counts)
        lines.append(f'  "sd{i}" [label="{label} [{shape}]"];')
    for i, j in sdp.poset.covers():
        lines.append(f'  "sd{i}" -> "sd{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
