"""The dcx command line.

Subcommands build shapes, check properties, explore layerings and
subdivision posets, and work with directed complexes.  Exit codes: 0 when
the requested property holds (or the command succeeded), 1 when a checked
property fails (a JSON counterexample goes to stdout), and 2 on a usage
error, on invalid input, or on an input or a ``make globe``, ``path``,
``oriental`` or ``join`` output over DCX_ELEMENT_LIMIT elements.  The limit
bounds every poset read from a file, every cell shape of a dcomplex/1 file,
and every imported ssset/1 file and each of its simplices.  All but the
certificate shapes are sized before they are built.

Each subcommand with modes names them once, in a table of ``(mode,
handler)`` rows: its parser reads its choices from the table, and its
``_cmd_*`` function looks the handler up there.
"""
from __future__ import annotations

import argparse
import sys

from . import serialize
from .dcomplex import (
    DirectedComplex,
    atoms_acyclic,
    check_fits,
    check_simplex_fits,
    element_limit,
    enumerate_molecules,
    has_frame_acyclic_molecules,
    import_ssset,
)
from .errors import BudgetError, DcxError
from .flow import (
    check_layering_theory,
    is_frame_acyclic,
    layerings,
    maxflow,
    orderings,
)
from .molecule import (
    Molecule,
    atom,
    globe,
    is_molecule,
    is_round,
    join,
    oriental,
    paste,
    path,
    suspension,
    theta_from_tree,
)
from .ogposet import OgPoset, is_hasse_acyclic
from .subdivision import enumerate_sd, sd_report_json


class CliError(Exception):
    """A refused command line: exit 2 with its message."""


def _read_text(path_arg) -> str:
    if path_arg in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path_arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path_arg}: {exc}") from exc


def _parse_input(kind: str, parse, path_arg):
    """``parse`` applied to the text of a file; malformed input exits 2.

    Parsing may size shapes against DCX_ELEMENT_LIMIT, so the limit is read
    first: a malformed limit is not reported as malformed input.  A file
    that lists more elements than the limit is not malformed either, so its
    BudgetError is reported as it is.
    """
    element_limit()
    try:
        return parse(_read_text(path_arg))
    except BudgetError:
        raise
    except (DcxError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"invalid {kind} input: {exc}") from exc


def _load_poset(path_arg) -> OgPoset:
    return _parse_input("ogposet", serialize.loads_ogposet, path_arg)


def _load_molecule(path_arg) -> Molecule:
    P = _load_poset(path_arg)
    cert = is_molecule(P)
    if cert is None:
        raise CliError("input poset is not a molecule")
    return Molecule(P, cert)


def _emit(doc) -> None:
    sys.stdout.write(serialize.dumps_json(doc))


def _modes(table) -> tuple:
    """The modes of a ``(mode, handler)`` table, in its order: the argparse
    choices of its subcommand."""
    return tuple(mode for mode, _ in table)


# -- make: each _make_* function takes the target and its arguments, ``args.what``


def _arg_int(what, pos, name) -> int:
    try:
        return int(what[pos])
    except ValueError:
        raise CliError(f"make {what[0]} needs integer {name}")


def _command(what) -> str:
    return f"make {' '.join(what)}"


def _make_globe(what) -> Molecule:
    n = _arg_int(what, 1, "N")
    check_fits(_command(what), 2 * n + 1)
    return globe(n)


def _make_path(what) -> Molecule:
    n = _arg_int(what, 1, "K")
    check_fits(_command(what), 2 * n + 1)
    return path(n)


def _make_oriental(what) -> Molecule:
    n = _arg_int(what, 1, "N")
    check_simplex_fits(_command(what), n)
    return oriental(n)


def _make_theta(what) -> Molecule:
    try:
        return theta_from_tree(what[1])
    except ValueError as exc:
        raise CliError(f"bad tree: {exc}")


def _make_paste(what) -> Molecule:
    U, V = map(_load_molecule, what[1:3])
    return paste(U, V, _arg_int(what, 3, "K"))


def _make_atom(what) -> Molecule:
    return atom(*map(_load_molecule, what[1:]))


def _make_join(what) -> Molecule:
    U, V = map(_load_molecule, what[1:])
    check_fits(_command(what), U.size() + V.size() + U.size() * V.size())
    return join(U, V)


def _make_suspend(what) -> Molecule:
    return suspension(_load_molecule(what[1]))


# (target, number of arguments, what a wrong number of arguments is told, build)
_MAKE_TARGETS = (
    ("globe", 1, "integer N", _make_globe),
    ("path", 1, "integer K", _make_path),
    ("oriental", 1, "integer N", _make_oriental),
    ("theta", 1, "a tree such as ((),())", _make_theta),
    ("paste", 3, "A B K", _make_paste),
    ("atom", 2, "A B", _make_atom),
    ("join", 2, "A B", _make_join),
    ("suspend", 1, "A", _make_suspend),
)


def _cmd_make(args) -> int:
    kind, *rest = args.what
    for target, arity, usage, build in _MAKE_TARGETS:
        if target == kind:
            break
    else:
        raise CliError(f"unknown make target {kind!r}")
    if len(rest) != arity:
        raise CliError(f"make {kind} needs {usage}")
    sys.stdout.write(serialize.dumps_ogposet(build(args.what).poset))
    return 0


# -- check: each property's handler returns (holds, the verdict's other fields)


def _verdict(holds, reason) -> tuple[bool, dict]:
    return holds, {} if holds else {"reason": reason}


def _check_molecule(args):
    cert = is_molecule(_load_poset(args.file))
    if cert is None:
        return False, {"reason": "no valid construction found"}
    return True, {"certificate": cert}


def _check_round(args):
    return _verdict(is_round(_load_molecule(args.file)), "boundary collapse condition fails")


def _check_atom(args):
    return _verdict(_load_molecule(args.file).greatest() is not None, "no greatest element")


def _check_hasse_acyclic(args):
    return _verdict(is_hasse_acyclic(_load_poset(args.file)), "oriented Hasse diagram has a cycle")


def _check_frame_acyclic(args):
    res = is_frame_acyclic(_load_molecule(args.file))
    if res:
        return True, {}
    return False, {
        "offending_submolecule": [list(e) for e in res.offending.elements()],
        "cycle": [list(e) for e in res.cycle],
    }


_CHECKS = (
    ("molecule", _check_molecule),
    ("round", _check_round),
    ("atom", _check_atom),
    ("hasse-acyclic", _check_hasse_acyclic),
    ("frame-acyclic", _check_frame_acyclic),
)


def _cmd_check(args) -> int:
    holds, extra = dict(_CHECKS)[args.property](args)
    _emit({"holds": holds, "property": args.property, **extra})
    return 0 if holds else 1


# -- flow: each mode's handler returns its JSON document ----------------------


def _flow_graph(mol, k) -> dict:
    fg = maxflow(mol, k)
    edges = sorted([list(a), list(b)] for a, b in fg.edges)
    return {"k": k, "vertices": [list(v) for v in fg.vertices], "edges": edges}


def _flow_layerings(mol, k) -> dict:
    lays = layerings(mol, k)
    listed = [[[list(e) for e in layer.elements()] for layer in lay] for lay in lays]
    return {"k": k, "count": len(lays), "layerings": listed}


def _flow_orderings(mol, k) -> dict:
    ords = orderings(mol, k)
    listed = [[sorted(map(list, b)) for b in o] for o in ords]
    return {"k": k, "count": len(ords), "orderings": listed}


_FLOWS = (
    ("graph", _flow_graph),
    ("layerings", _flow_layerings),
    ("orderings", _flow_orderings),
    ("theory", check_layering_theory),
)


def _cmd_flow(args) -> int:
    if args.output == "dot":
        if args.mode != "graph":
            raise CliError("--output dot is only available for flow graph")
        sys.stdout.write(_export_flow(args))
        return 0
    doc = dict(_FLOWS)[args.mode](_load_molecule(args.file), args.k)
    _emit(doc)
    return 0 if doc.get("iso", True) else 1  # only a theory report has "iso"


def _parse_levels(text):
    if text is None:
        return None
    text = text.strip()
    if not text:
        return set()
    try:
        return {int(part) for part in text.split(",")}
    except ValueError:
        raise CliError(f"bad level set {text!r}")


def _cmd_sd(args) -> int:
    mol = _load_molecule(args.file)
    levels = _parse_levels(args.levels)
    if args.report:
        _emit(sd_report_json(mol, levels))
        return 0
    sdp = enumerate_sd(mol, levels)
    _emit(
        {
            "levels": list(sdp.levels),
            "size": sdp.size,
            "sd_size": sdp.size - 1,
            "theta_counts": [list(s.counts) for s in sdp.elements],
        }
    )
    return 0


def _load_complex(path_arg) -> DirectedComplex:
    return _parse_input("dcomplex", serialize.loads_dcomplex, path_arg)


# -- cx: one handler per mode, each writing its own output -------------------


def _cx_import_ssset(args) -> int:
    X = _parse_input("ssset", lambda text: import_ssset(serialize.loads_ssset(text)), args.file)
    sys.stdout.write(serialize.dumps_dcomplex(X))
    return 0


def _cx_verify(args) -> int:
    X = _load_complex(args.file)
    regular, acyclic = X.is_regular(), atoms_acyclic(X)
    cells = [len(level) for level in X.cells]
    _emit({"valid": True, "regular": regular, "acyclic_atoms": acyclic, "cells": cells})
    return 0


def _cx_molecules(args) -> int:
    diags = enumerate_molecules(_load_complex(args.file), args.max_cells)
    name = serialize._el_name
    listed = [
        {
            "shape_counts": list(d.shape.counts),
            "labels": {name(el): name(cid) for el, cid in sorted(d.labels.items())},
        }
        for d in diags
    ]
    _emit({"max_cells": args.max_cells, "count": len(diags), "diagrams": listed})
    return 0


def _cx_frame_acyclic(args) -> int:
    verdict = has_frame_acyclic_molecules(_load_complex(args.file), args.budget)
    _emit(verdict.to_json())
    return 1 if verdict.kind == verdict.COUNTEREXAMPLE else 0


_CX_MODES = (
    ("import-ssset", _cx_import_ssset),
    ("verify", _cx_verify),
    ("molecules", _cx_molecules),
    ("frame-acyclic", _cx_frame_acyclic),
)


def _cmd_cx(args) -> int:
    return dict(_CX_MODES)[args.mode](args)


# -- export: each handler returns its DOT text --------------------------------


def _export_hasse(args) -> str:
    return serialize.dot_hasse(_load_poset(args.file))


def _export_flow(args) -> str:
    return serialize.dot_flow(maxflow(_load_molecule(args.file), args.k))


def _export_sd(args) -> str:
    mol = _load_molecule(args.file)
    return serialize.dot_sd(enumerate_sd(mol, _parse_levels(args.levels)))


_EXPORTS = (("hasse", _export_hasse), ("flow", _export_flow), ("sd", _export_sd))


def _cmd_export(args) -> int:
    sys.stdout.write(dict(_EXPORTS)[args.what](args))
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand parser that takes options before or after positionals."""

    _mixing = False

    def parse_known_args(self, args=None, namespace=None):
        # parse_known_intermixed_args makes two plain passes through here
        if self._mixing:
            return super().parse_known_args(args, namespace)
        self._mixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._mixing = False


def _args_make(p) -> None:
    p.add_argument(
        "what",
        nargs="+",
        help=(
            "globe N | path K | oriental N | theta TREE | paste A B K | atom A B"
            " | suspend A | join A B"
        ),
    )
    p.set_defaults(func=_cmd_make)


def _args_check(p) -> None:
    p.add_argument("property", choices=_modes(_CHECKS))
    p.add_argument("file", nargs="?", help="ogposet/1 file (default stdin)")
    p.set_defaults(func=_cmd_check)


def _args_flow(p) -> None:
    p.add_argument("mode", choices=_modes(_FLOWS))
    p.add_argument("file", nargs="?")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_flow)


def _args_sd(p) -> None:
    p.add_argument("file", nargs="?")
    p.add_argument("--levels", help="comma-separated levels, e.g. 0,1")
    p.add_argument("--report", action="store_true", help="homology report of Sd")
    p.set_defaults(func=_cmd_sd)


def _args_cx(p) -> None:
    p.add_argument("mode", choices=_modes(_CX_MODES))
    p.add_argument("file", nargs="?")
    p.add_argument("--max-cells", type=int, default=3)
    p.add_argument("--budget", type=int, default=4)
    p.set_defaults(func=_cmd_cx)


def _args_export(p) -> None:
    p.add_argument("--dot", dest="what", choices=_modes(_EXPORTS), required=True)
    p.add_argument("file", nargs="?")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--levels")
    p.set_defaults(func=_cmd_export)


# (name, help, adder): each subcommand's arguments are defined once, by its adder
_SUBCOMMANDS = (
    ("make", "construct a molecule, write ogposet/1 JSON", _args_make),
    ("check", "check a property of an ogposet/molecule", _args_check),
    ("flow", "flow graphs, layerings, orderings", _args_flow),
    ("sd", "subdivision posets and contractibility evidence", _args_sd),
    ("cx", "directed complexes", _args_cx),
    ("export", "DOT export", _args_export),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcx",
        description="combinatorics of directed complexes: molecules, layerings, subdivisions",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )
    for name, help_text, add in _SUBCOMMANDS:
        add(sub.add_parser(name, help=help_text))
    return parser


_PARSER = build_parser()


def run(argv) -> int:
    """Run one command line and return its exit code.

    Every command line is parsed by ``_PARSER``, built once at import.
    Intermixed parsing changes that parser's actions while it runs, so two
    threads must not call ``run`` at once.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, DcxError) as exc:
        _emit({"error": str(exc)})
        return 2
    except RecursionError as exc:
        # input too deep for the interpreter's recursion limit
        _emit({"error": f"input too deep: {exc}"})
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
