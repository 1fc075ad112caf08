"""The dcx command line.

Subcommands build shapes, check properties, explore layerings and
subdivision posets, and work with directed complexes.  Exit codes: 0 when
the requested property holds (or the command succeeded), 1 when a checked
property fails (a JSON counterexample goes to stdout), 2 on invalid input
or when a brute-force guard trips: every poset read from a file, every cell
shape of a dcomplex/1 file, every imported ssset/1 file and each of its
simplices, and every ``make globe``, ``path``, ``oriental`` or ``join``
output, may hold at most DCX_ELEMENT_LIMIT elements.  All but the
certificate shapes are sized before they are built.
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
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


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


def _emit_poset(mol: Molecule) -> None:
    sys.stdout.write(serialize.dumps_ogposet(mol.poset))


# -- subcommands --------------------------------------------------------------


# (target, number of arguments, what a wrong number of arguments is told)
_MAKE_TARGETS = (
    ("globe", 1, "integer N"),
    ("path", 1, "integer K"),
    ("oriental", 1, "integer N"),
    ("theta", 1, "a tree such as ((),())"),
    ("paste", 3, "A B K"),
    ("atom", 2, "A B"),
    ("join", 2, "A B"),
    ("suspend", 1, "A"),
)


def _cmd_make(args) -> int:
    kind = args.what[0]
    rest = args.what[1:]
    for target, arity, usage in _MAKE_TARGETS:
        if target == kind:
            break
    else:
        raise CliError(f"unknown make target {kind!r}")
    if len(rest) != arity:
        raise CliError(f"make {kind} needs {usage}")

    def arg_int(pos, name):
        try:
            return int(rest[pos])
        except ValueError:
            raise CliError(f"make {kind} needs integer {name}")

    what = f"make {' '.join(args.what)}"
    if kind in ("globe", "path"):
        n = arg_int(0, "N" if kind == "globe" else "K")
        check_fits(what, 2 * n + 1)
        _emit_poset(globe(n) if kind == "globe" else path(n))
    elif kind == "oriental":
        n = arg_int(0, "N")
        check_simplex_fits(what, n)
        _emit_poset(oriental(n))
    elif kind == "theta":
        try:
            _emit_poset(theta_from_tree(rest[0]))
        except ValueError as exc:
            raise CliError(f"bad tree: {exc}")
    elif kind == "paste":
        U = _load_molecule(rest[0])
        V = _load_molecule(rest[1])
        _emit_poset(paste(U, V, arg_int(2, "K")))
    elif kind == "atom":
        _emit_poset(atom(_load_molecule(rest[0]), _load_molecule(rest[1])))
    elif kind == "join":
        U = _load_molecule(rest[0])
        V = _load_molecule(rest[1])
        check_fits(what, U.size() + V.size() + U.size() * V.size())
        _emit_poset(join(U, V))
    else:
        _emit_poset(suspension(_load_molecule(rest[0])))
    return 0


def _cmd_check(args) -> int:
    prop = args.property
    if prop == "hasse-acyclic":
        P = _load_poset(args.file)
        if is_hasse_acyclic(P):
            _emit({"holds": True, "property": prop})
            return 0
        _emit({"holds": False, "property": prop, "reason": "oriented Hasse diagram has a cycle"})
        return 1
    if prop == "molecule":
        P = _load_poset(args.file)
        cert = is_molecule(P)
        if cert is None:
            _emit({"holds": False, "property": prop, "reason": "no valid construction found"})
            return 1
        _emit({"holds": True, "property": prop, "certificate": cert})
        return 0
    mol = _load_molecule(args.file)
    if prop == "round":
        ok, reason = is_round(mol), "boundary collapse condition fails"
    elif prop == "atom":
        ok, reason = mol.greatest() is not None, "no greatest element"
    else:  # frame-acyclic, the last choice the parser allows
        res = is_frame_acyclic(mol)
        ok = bool(res)
        if not ok:
            _emit(
                {
                    "holds": False,
                    "property": prop,
                    "offending_submolecule": [list(e) for e in res.offending.elements()],
                    "cycle": [list(e) for e in res.cycle],
                }
            )
            return 1
        reason = ""
    if ok:
        _emit({"holds": True, "property": prop})
        return 0
    _emit({"holds": False, "property": prop, "reason": reason})
    return 1


def _cmd_flow(args) -> int:
    if args.output == "dot" and args.mode != "graph":
        raise CliError("--output dot is only available for flow graph")
    mol = _load_molecule(args.file)
    k = args.k
    if args.mode == "graph":
        fg = maxflow(mol, k)
        if args.output == "dot":
            sys.stdout.write(serialize.dot_flow(fg))
        else:
            _emit(
                {
                    "k": k,
                    "vertices": [list(v) for v in fg.vertices],
                    "edges": sorted([list(a), list(b)] for a, b in fg.edges),
                }
            )
        return 0
    if args.mode == "layerings":
        lays = layerings(mol, k)
        _emit(
            {
                "k": k,
                "count": len(lays),
                "layerings": [
                    [[list(e) for e in layer.elements()] for layer in lay]
                    for lay in lays
                ],
            }
        )
        return 0
    if args.mode == "orderings":
        ords = orderings(mol, k)
        _emit(
            {
                "k": k,
                "count": len(ords),
                "orderings": [[sorted(map(list, b)) for b in o] for o in ords],
            }
        )
        return 0
    report = check_layering_theory(mol, k)  # theory, the last choice
    _emit(report)
    return 0 if report["iso"] else 1


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


def _cmd_cx(args) -> int:
    mode = args.mode
    if mode == "import-ssset":
        X = _parse_input(
            "ssset", lambda text: import_ssset(serialize.loads_ssset(text)), args.file
        )
        sys.stdout.write(serialize.dumps_dcomplex(X))
        return 0
    if mode == "verify":
        X = _load_complex(args.file)
        _emit(
            {
                "valid": True,
                "regular": X.is_regular(),
                "acyclic_atoms": atoms_acyclic(X),
                "cells": [len(level) for level in X.cells],
            }
        )
        return 0
    if mode == "molecules":
        X = _load_complex(args.file)
        diags = enumerate_molecules(X, args.max_cells)
        _emit(
            {
                "max_cells": args.max_cells,
                "count": len(diags),
                "diagrams": [
                    {
                        "shape_counts": list(d.shape.counts),
                        "labels": {
                            f"{el[0]}.{el[1]}": f"{cid[0]}.{cid[1]}"
                            for el, cid in sorted(d.labels.items())
                        },
                    }
                    for d in diags
                ],
            }
        )
        return 0
    X = _load_complex(args.file)  # frame-acyclic, the last choice
    verdict = has_frame_acyclic_molecules(X, args.budget)
    _emit(verdict.to_json())
    return 1 if verdict.kind == verdict.COUNTEREXAMPLE else 0


def _cmd_export(args) -> int:
    if args.what == "hasse":
        P = _load_poset(args.file)
        sys.stdout.write(serialize.dot_hasse(P))
        return 0
    if args.what == "flow":
        mol = _load_molecule(args.file)
        sys.stdout.write(serialize.dot_flow(maxflow(mol, args.k)))
        return 0
    mol = _load_molecule(args.file)  # sd, the last choice
    levels = _parse_levels(args.levels)
    sys.stdout.write(serialize.dot_sd(enumerate_sd(mol, levels)))
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
    p.add_argument(
        "property", choices=["molecule", "round", "atom", "hasse-acyclic", "frame-acyclic"]
    )
    p.add_argument("file", nargs="?", help="ogposet/1 file (default stdin)")
    p.set_defaults(func=_cmd_check)


def _args_flow(p) -> None:
    p.add_argument("mode", choices=["graph", "layerings", "orderings", "theory"])
    p.add_argument("file", nargs="?")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_flow)


def _args_sd(p) -> None:
    p.add_argument("file", nargs="?")
    p.add_argument("--levels", help="comma-separated levels, e.g. 0,1")
    p.add_argument("--report", action="store_true", help="homology report of Sd")
    p.set_defaults(func=_cmd_sd)


def _args_cx(p) -> None:
    p.add_argument(
        "mode", choices=["import-ssset", "verify", "molecules", "frame-acyclic"]
    )
    p.add_argument("file", nargs="?")
    p.add_argument("--max-cells", type=int, default=3)
    p.add_argument("--budget", type=int, default=4)
    p.set_defaults(func=_cmd_cx)


def _args_export(p) -> None:
    p.add_argument("--dot", dest="what", choices=["hasse", "flow", "sd"], required=True)
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


def _parse(argv) -> argparse.Namespace:
    """The arguments of ``argv``, parsed by the parser of its subcommand
    alone when that parser takes every argument, else by the full parser."""
    for name, _, add in _SUBCOMMANDS:
        if argv and argv[0] == name:
            parser = _SubcommandParser(prog=f"dcx {name}")
            add(parser)
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                return args
            break
    return build_parser().parse_args(argv)


def run(argv) -> int:
    """Run one command line and return its exit code.

    When ``argv[0]`` names a subcommand, only that subcommand's parser is
    built.  The full parser of ``build_parser`` parses ``argv`` instead when
    there is no subcommand name (no arguments, ``--help`` or an unknown
    name) or when arguments are left over, so help, usage lines and errors
    read exactly as when the full parser parses every command line.
    """
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        _emit({"error": str(exc)})
        return exc.code
    except DcxError as exc:
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
