"""Every module of the package uses every name it imports, every
function, method and class it defines is read somewhere, and every local
name a function assigns is read in that function.

Stdlib ``ast`` scans.  A name bound by an import must be read somewhere in
the module, in code or in a quoted annotation.  ``__init__.py`` is left
out, since its imports are the package's public names, and so is an
explicit re-export written ``from m import x as x``.  A definition (dunders
excepted) must be read as a name, an attribute or an imported name
somewhere in the package, its tests or perfbench; a method counts only when
it is read as an attribute, so a local variable of the same name does not
hide it.  A mention in a docstring does not count.  A local name that
starts with ``_`` may go unread.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

import dcx

PACKAGE = Path(dcx.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:
                    out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, quoted annotations included."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return out


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from typing import Optional, Iterator, Any as Any\n"
        "import os.path\n"
        "def f(x: 'Optional[int]'):\n"
        "    return os.sep, 'Iterator'\n",
        encoding="utf-8",
    )
    assert unused_imports(mod) == ["mod.py:1: Iterator"]


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found.extend(unused_imports(path))
    assert found == []


def definitions(path: Path) -> list[tuple[int, str, bool]]:
    """Functions, methods and classes defined in a module, dunders excepted,
    each with whether it is a method (defined in a class body)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, kinds)
    }
    return sorted(
        (node.lineno, node.name, node in methods)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def reads(path: Path) -> tuple[set[str], set[str]]:
    """What a module reads: loaded and imported names, and attributes."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names, attributes


def unused_definitions(defining: list[Path], reading: list[Path]) -> list[str]:
    names, attributes = set(), set()
    for path in reading:
        read_names, read_attributes = reads(path)
        names |= read_names
        attributes |= read_attributes
    return [
        f"{path.name}:{line}: {name}"
        for path in defining
        for line, name, method in definitions(path)
        if name not in attributes and (method or name not in names)
    ]


def test_scan_finds_an_unused_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class Shape:\n"
        "    def __init__(self):\n"
        "        self.stored = 1\n"
        "    def area(self):\n"
        "        '''Unlike helper, this is called.'''\n"
        "        return self.side()\n"
        "    def side(self):\n"
        "        return 2\n"
        "    def stored(self):\n"
        "        pass\n"
        "    def perimeter(self):\n"
        "        pass\n"
        "def helper():\n"
        "    pass\n"
        "def exported():\n"
        "    perimeter = 8\n"
        "    return perimeter\n"
        "Shape().area()\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text("from mod import exported\n", encoding="utf-8")
    assert unused_definitions([mod], [mod, user]) == [
        "mod.py:9: stored",
        "mod.py:11: perimeter",
        "mod.py:13: helper",
    ]
    assert unused_definitions([mod], [mod]) == [
        "mod.py:9: stored",
        "mod.py:11: perimeter",
        "mod.py:13: helper",
        "mod.py:15: exported",
    ]


def test_every_definition_is_read():
    defining = sorted(PACKAGE.glob("*.py"))
    reading = defining + sorted((ROOT / "tests").rglob("*.py"))
    reading += sorted((ROOT / "perfbench").rglob("*.py"))
    assert unused_definitions(defining, reading) == []


def dead_locals(path: Path) -> list[str]:
    """Names assigned in a function of a module and read nowhere in it,
    its nested functions included.  Names starting with ``_`` and names
    declared ``global`` or ``nonlocal`` are skipped; an augmented
    assignment reads its target."""
    out = set()
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
        out.update(
            (line, name)
            for name, line in stored.items()
            if name not in read and not name.startswith("_")
        )
    return [f"{path.name}:{line}: {name}" for line, name in sorted(out)]


def test_scan_finds_a_dead_local(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(xs):\n"
        "    lo = hi = len(xs)\n"
        "    total = 0\n"
        "    for i, x in enumerate(xs):\n"
        "        total += x\n"
        "    _, spare = divmod(hi, 2)\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = seen = 1\n"
        "    return g, hi\n"
        "def h():\n"
        "    count = 0\n"
        "    return [count for _ in ()]\n",
        encoding="utf-8",
    )
    assert dead_locals(mod) == [
        "mod.py:2: lo",
        "mod.py:4: i",
        "mod.py:6: spare",
        "mod.py:9: seen",
    ]


def test_no_dead_locals():
    """Every name a function of the package assigns is read."""
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in dead_locals(path)]
    assert found == []


SETUP = {"__init__"}


def slots(path: Path) -> list[tuple[int, str, str]]:
    """The ``__slots__`` entries of the classes a module defines, each with
    its class and the line of the ``__slots__`` statement."""
    out = []
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                out.extend(
                    (node.lineno, cls.name, entry.value)
                    for entry in ast.walk(node.value)
                    if isinstance(entry, ast.Constant) and isinstance(entry.value, str)
                )
    return out


def attributes_read_after_setup(path: Path) -> set[str]:
    """The attributes a module reads outside the bodies of ``__init__``,
    which fill the slots."""
    out = set()
    stack = [ast.parse(path.read_text(encoding="utf-8"))]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in SETUP:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unread_slots(defining: list[Path], reading: list[Path]) -> list[str]:
    read = set().union(*map(attributes_read_after_setup, reading))
    return [
        f"{path.name}:{line}: {cls}.{name}"
        for path in defining
        for line, cls, name in slots(path)
        if name not in read
    ]


def test_scan_finds_an_unread_slot(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class Table:\n"
        "    __slots__ = ('rows', 'cols', 'spare')\n"
        "    def __init__(self):\n"
        "        self.rows = [0]\n"
        "        self.cols = self.rows[:]\n"
        "        self.spare = self.cols\n"
        "        self.spare[0] |= 1\n"
        "    def width(self):\n"
        "        return len(self.cols)\n",
        encoding="utf-8",
    )
    user = tmp_path / "user.py"
    user.write_text("def height(t):\n    return len(t.rows)\n", encoding="utf-8")
    assert unread_slots([mod], [mod, user]) == ["mod.py:2: Table.spare"]
    assert unread_slots([mod], [mod]) == ["mod.py:2: Table.rows", "mod.py:2: Table.spare"]


def test_every_slot_is_read():
    """A slot that only ``__init__`` reads holds a table nothing uses."""
    defining = sorted(PACKAGE.glob("*.py"))
    reading = defining + sorted((ROOT / "tests").rglob("*.py"))
    reading += sorted((ROOT / "perfbench").rglob("*.py"))
    assert unread_slots(defining, reading) == []


# -- the subset layout lives in one module ------------------------------------------

LAYOUT_TABLES = {"_offsets", "_els", "_upto"}


def layout_reads(path: Path) -> list[str]:
    """Reads of the position and offset tables of an OgPoset, as attributes
    or as the strings ``getattr`` would take."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_TABLES:
            out.append(f"{path.name}:{node.lineno}: {node.attr}")
        elif isinstance(node, ast.Constant) and node.value in LAYOUT_TABLES:
            out.append(f"{path.name}:{node.lineno}: {node.value}")
    return out


def test_scan_finds_a_layout_read(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def position(P, el):\n"
        "    _offsets = P.counts\n"
        "    return P._offsets[el[0]] + el[1]\n"
        "def element(P, p):\n"
        "    return getattr(P, '_els')[p], P.pos((0, 0))\n",
        encoding="utf-8",
    )
    assert layout_reads(mod) == ["mod.py:3: _offsets", "mod.py:5: _els"]


def test_only_ogposet_reads_the_layout():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "ogposet.py":
            found.extend(layout_reads(path))
    assert found == []
    assert layout_reads(PACKAGE / "ogposet.py")


def test_only_ogposet_reads_union():
    """Subset unions over a per-position table stay inside ogposet.py, so a
    faster table lookup can replace ``_union`` in one module."""
    readers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "_union" in set().union(*reads(path))
    ]
    assert readers == ["ogposet.py"]


def memo_readers(path: Path) -> list[str]:
    """The top-level definitions of a module that read the ``_memo``
    attribute of a poset."""
    return [
        f"{path.name}: {node.name}"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if "_memo" in {
            sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        }
    ]


def test_only_ogposet_reads_the_memo():
    """Memo tables are reached only through the decorator
    ``ogposet._memoised``, so the cache mechanism lives in one function,
    where hits and misses can be counted."""
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in memo_readers(path)]
    assert found == ["ogposet.py: _memoised"]


MEMO_NAMES = {"mol", "prelay", "sdtrees", "sdleaf", "sdmeet", "frames", "canon", "acyclic"}


def memo_names(path: Path) -> set:
    """The table names a module gives ``_memoised``, as a decorator or a
    plain call; a name that is not a string constant shows as None."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and _callee(node) == "_memoised":
            name = node.args[0] if node.args else None
            out.add(name.value if isinstance(name, ast.Constant) else None)
    return out


def test_scan_finds_the_memo_names(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "@_memoised('a')\n"
        "def f(P, x):\n"
        "    return P._memo\n"
        "@ogposet._memoised(KEY)\n"
        "def g(P, x, y):\n"
        "    return x\n"
        "h = _memoised('b')(len)\n",
        encoding="utf-8",
    )
    assert memo_names(mod) == {"a", "b", None}
    assert memo_readers(mod) == ["mod.py: f"]


def test_the_memo_names_are_fixed():
    """Each memo is one named table per poset, so a new table shows here."""
    found = set().union(*(memo_names(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert found == MEMO_NAMES


def _key_shape(key):
    """The type names of a memo key, a tuple of them for a tuple key."""
    return tuple(map(_key_shape, key)) if isinstance(key, tuple) else type(key).__name__


def test_memo_keys_have_fixed_shapes():
    """A table is keyed by its search's single argument, or by the tuple of
    its arguments.  perfbench's probe ``_mol_memo_has`` reads the "mol"
    memo by the bare subset, so another key shape would make its hit ratio
    read 0."""
    U = dcx.path(3)
    P = U.poset
    dcx.enumerate_sd(U, [0])
    dcx.is_molecule(P)
    P.canon_record(P.boundary_masks(P.full_masks(), 0, dcx.ogposet.MINUS))
    dcx.is_frame_acyclic(U)
    found = {name: {_key_shape(key) for key in table} for name, table in P._memo.items()}
    assert found == {
        "mol": {"int"},
        "acyclic": {"int"},
        "frames": {"int"},
        "canon": {"int"},
        "prelay": {("int", "int")},
        "sdtrees": {("int", ("int",), "int")},
        "sdleaf": {"int"},
        "sdmeet": {("int", "int", "int")},
    }
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._mol_memo_has((P, P.full_masks()))
    assert not tracing._mol_memo_has((dcx.path(3).poset, P.full_masks()))


# -- OgPoset takes a face table and nothing else -------------------------------------


def ogposet_calls(path: Path) -> list[tuple[int, bool]]:
    """The lines of a module's ``OgPoset(...)`` calls, each with whether it
    passes exactly two positional arguments, neither of them starred, and no
    keyword."""
    return sorted(
        (
            node.lineno,
            len(node.args) == 2
            and not node.keywords
            and not any(isinstance(arg, ast.Starred) for arg in node.args),
        )
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _callee(node) == "OgPoset"
    )


def test_scan_finds_the_ogposet_calls(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "P = OgPoset(counts, faces)\n"
        "Q = ogposet.OgPoset(counts, faces, strict=True)\n"
        "R = OgPoset(counts, faces, trusted=True)\n"
        "S = OgPoset(*table)\n"
        "T = OgPoset(counts, faces, True)\n"
        "U = OgPoset(counts)\n"
        "V = OgPoset(counts=counts, faces=faces)\n",
        encoding="utf-8",
    )
    assert ogposet_calls(mod) == [(1, True)] + [(line, False) for line in range(2, 8)]


def test_ogposet_calls_pass_only_a_face_table():
    """``OgPoset`` builds from counts and faces and takes no option: raw
    tables are checked by ``validate``, and constructions need no check."""
    calls = [
        (path.name, line, ok)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, ok in ogposet_calls(path)
    ]
    assert [call for call in calls if not call[2]] == []
    assert len(calls) >= 8


# -- one individualisation-refinement search ----------------------------------------


def refine_readers(path: Path) -> list[str]:
    """The top-level statements of a module that read ``_refine``, as a name,
    an attribute or an imported name: definitions by name, other statements
    by line."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if any(
            (isinstance(n, ast.Name) and n.id == "_refine" and isinstance(n.ctx, ast.Load))
            or (isinstance(n, ast.Attribute) and n.attr == "_refine")
            or (isinstance(n, ast.alias) and n.name == "_refine")
            for n in ast.walk(node)
        ):
            out.append(getattr(node, "name", f"line {node.lineno}"))
    return out


def test_scan_finds_the_refine_readers(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from .ogposet import _refine\n"
        "def _refine(nbrs, colors):\n"
        "    return colors\n"
        "def search(nbrs):\n"
        "    return _refine(nbrs, [])\n"
        "class Search:\n"
        "    def run(self):\n"
        "        return ogposet._refine\n"
        "refine = _refine\n"
        "def shadow():\n"
        "    _refine = 1\n"
        "    return '_refine'\n",
        encoding="utf-8",
    )
    assert refine_readers(mod) == ["line 1", "search", "Search", "line 9"]


def test_only_canonical_form_refines():
    """``_canonical_form`` is the one individualisation-refinement search:
    no other definition of the package reads ``_refine``."""
    found = [
        (path.name, name) for path in sorted(PACKAGE.glob("*.py")) for name in refine_readers(path)
    ]
    assert found == [("ogposet.py", "_canonical_form")]


def search_readers(path: Path) -> list[str]:
    """The places of a module that read ``_canonical_form``, as a name, an
    attribute or an imported name: the innermost enclosing class or
    function by dotted name, or the line of a read outside any."""
    out: list[str] = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if (
            (isinstance(node, ast.Name) and node.id == "_canonical_form" and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "_canonical_form")
            or (isinstance(node, ast.alias) and node.name == "_canonical_form")
        ):
            out.append(".".join(scope) or f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return list(dict.fromkeys(out))


def test_scan_finds_the_search_readers(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from .ogposet import _canonical_form\n"
        "def _canonical_form(counts, faces):\n"
        "    return counts\n"
        "class OgPoset:\n"
        "    def canon_record(self, masks):\n"
        "        return _canonical_form(masks, [])\n"
        "    def other(self):\n"
        "        return ogposet._canonical_form\n"
        "search = _canonical_form\n"
        "def shadow():\n"
        "    _canonical_form = 1\n"
        "    return '_canonical_form'\n",
        encoding="utf-8",
    )
    assert search_readers(mod) == ["line 1", "OgPoset.canon_record", "OgPoset.other", "line 9"]


def test_only_canon_record_searches():
    """``OgPoset.canon_record`` is the one caller of ``_canonical_form``, so
    every canonical search is memoised on its poset and every isomorphism is
    read off two records."""
    found = [
        (path.name, name) for path in sorted(PACKAGE.glob("*.py")) for name in search_readers(path)
    ]
    assert found == [("ogposet.py", "OgPoset.canon_record")]


# -- the code line counter ------------------------------------------------------------


def test_line_counter_counts_code_lines_only(tmp_path, capsys):
    """Docstrings, comments and blank lines do not count; every line of a
    multi-line call and of a multi-line string that is not a docstring
    does."""
    from src_lines import code_lines, main

    source = (
        '"""Module\n'
        'docstring."""\n'
        "# a comment\n"
        "\n"
        "X = call(\n"
        "    1,  # a trailing comment\n"
        "    2,\n"
        ")\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        '        text = """not\n'
        '        a docstring"""\n'
        "        return text\n"
    )
    assert code_lines(source) == 9
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    assert main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["9", "mod.py", "9", "total"]


# -- line length ------------------------------------------------------------------

MAX_LINE = 100


def long_lines(path: Path) -> list[str]:
    """The lines of a module longer than ``MAX_LINE`` characters, with their
    numbers and lengths."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [
        f"{path.name}:{n}: {len(line)}"
        for n, line in enumerate(lines, 1)
        if len(line) > MAX_LINE
    ]


def test_scan_finds_a_long_line(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\ny = '" + "a" * 94 + "'\nz = '" + "a" * 95 + "'\n", encoding="utf-8")
    assert long_lines(mod) == ["mod.py:3: 101"]


def test_no_long_lines():
    """No line of the package is longer than ``MAX_LINE`` characters."""
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in long_lines(path)]
    assert found == []


# -- no module-level caches -----------------------------------------------------------

CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def _callee(node: ast.expr) -> str:
    """The last name of what a call or decorator refers to: f, m.f, f(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def module_caches(path: Path) -> list[str]:
    """Top-level names bound to a dict, list or set, and top-level functions
    decorated with a memoising decorator: state shared by every caller."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and _callee(value) in CONTAINER_CALLS
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.extend(f"{path.name}:{node.lineno}: {ast.unparse(t)}" for t in targets)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if _callee(decorator) in CACHE_DECORATORS:
                    out.append(f"{path.name}:{decorator.lineno}: {node.name}")
    return out


CACHE_FORMS = {
    "dict": "memo = {}",
    "annotated": "memo: dict[int, int] = {1: 2}",
    "list": "memo = []",
    "set": "memo = {1, 2}",
    "dictcomp": "memo = {k: k for k in range(3)}",
    "listcomp": "memo = [k for k in range(3)]",
    "setcomp": "memo = {k for k in range(3)}",
    "dict-call": "memo = dict()",
    "list-call": "memo = list()",
    "set-call": "memo = set()",
    "defaultdict": "memo = collections.defaultdict(list)",
    "OrderedDict": "memo = OrderedDict()",
    "Counter": "memo = collections.Counter()",
    "cache": "@cache\ndef memo(n):\n    return n",
    "lru_cache-call": "@functools.lru_cache(maxsize=None)\ndef memo(n):\n    return n",
    "lru_cache": "@lru_cache\ndef memo(n):\n    return n",
}


@pytest.mark.parametrize("source", CACHE_FORMS.values(), ids=CACHE_FORMS.keys())
def test_scan_finds_a_module_cache(tmp_path, source):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\n" + source + "\n", encoding="utf-8")
    assert module_caches(mod) == ["mod.py:2: memo"]


def test_scan_passes_constants_and_local_state(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "LIMIT = 2000\n"
        "NAMES = ('a', 'b')\n"
        "KINDS = frozenset({'a'})\n"
        "@dataclass\n"
        "class Box:\n"
        "    items: list\n"
        "def f():\n"
        "    memo = {}\n"
        "    return memo\n",
        encoding="utf-8",
    )
    assert module_caches(mod) == []


def test_no_module_level_caches():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found.extend(module_caches(path))
    assert found == []
