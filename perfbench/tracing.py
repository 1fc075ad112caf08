"""Layer spans for the traced benchmark run.

The tracer wraps the public entry points of each ``dcx`` layer from the
outside: every module binding of a wrapped function (``flow`` and
``subdivision`` import ``mol_cert`` and ``splits_masks`` by name) and the
methods of ``OgPoset`` and ``FinPoset`` are replaced while tracing is on and
restored afterwards.  The library source is not modified.

A span records its layer name, start, end and the span that was open when
it started.  Spans are kept in flat arrays in memory and written out once
the run ends.  A layer's self time is its spans' durations minus the parts
covered by child spans; time inside a benchmark query that no layer span
covers is reported as unattributed, so that per-layer self times plus the
unattributed time add up to the traced wall time.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

ROOT = "query"

# (span name, module, attribute).  "Class.method" attributes are patched on
# the class; plain functions are patched in every dcx module that binds them.
LAYERS = (
    ("ogposet.init", "dcx.ogposet", "OgPoset.__init__"),
    ("ogposet.extract", "dcx.ogposet", "OgPoset.extract"),
    ("ogposet.boundary", "dcx.ogposet", "OgPoset.boundary_masks"),
    ("ogposet.canonical", "dcx.ogposet", "OgPoset.canonical"),
    ("ogposet.iso", "dcx.ogposet", "isomorphisms"),
    ("molecule.mol_cert", "dcx.molecule", "mol_cert"),
    ("molecule.splits", "dcx.molecule", "splits_masks"),
    ("molecule.submolecules", "dcx.molecule", "submolecules_masks"),
    ("molecule.paste", "dcx.molecule", "paste_posets"),
    ("flow.frame_acyclic", "dcx.flow", "is_frame_acyclic"),
    ("flow.maxflow", "dcx.flow", "maxflow_masks"),
    ("flow.frame_dim", "dcx.flow", "frame_dim_masks"),
    ("flow.prelayerings", "dcx.flow", "_prelayerings_masks"),
    ("subdivision.enumerate_sd", "dcx.subdivision", "enumerate_sd"),
    ("subdivision.trees", "dcx.subdivision", "_trees"),
    ("subdivision.realize", "dcx.subdivision", "realize"),
    ("subdivision.tree_leq", "dcx.subdivision", "tree_leq"),
    ("posets.from_leq", "dcx.posets", "FinPoset.from_leq"),
    ("posets.dismantle", "dcx.posets", "FinPoset.dismantle_core"),
    ("homology.homology", "dcx.homology", "homology"),
    ("dcomplex.enumerate", "dcx.dcomplex", "enumerate_molecules"),
    ("dcomplex.paste_diagrams", "dcx.dcomplex", "paste_diagrams"),
    ("dcomplex.boundary_diagram", "dcx.dcomplex", "boundary_diagram"),
    ("serialize.loads", "dcx.serialize", "loads_ogposet"),
    ("cli.run", "dcx.cli", "run"),
)

GENERATORS = {"molecule.splits"}

# Extra per-layer values: (metric name, unit, better).
EXTRA_METRICS = (
    ("ogposet.iso.found_ratio", "ratio", "higher"),
    ("molecule.mol_cert.memo_hit_ratio", "ratio", "higher"),
    ("molecule.splits.yielded", "count", "lower"),
    ("molecule.splits.per_call", "count", "higher"),
    ("molecule.submolecules.found", "count", "lower"),
    ("subdivision.trees.count", "count", "lower"),
    ("subdivision.trees.dedup_ratio", "ratio", "higher"),
    ("subdivision.tree_leq.true_frac", "ratio", "higher"),
    ("posets.dismantle.core_size", "count", "lower"),
    ("dcomplex.paste_diagrams.ok", "count", "lower"),
    ("dcomplex.paste_diagrams.success_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports, as (name, unit, better)."""
    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend(EXTRA_METRICS)
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = [ROOT] + [name for name, _, _ in LAYERS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls = [0] * len(self.names)
        self.counts: dict[str, float] = {}
        self.on = [True]  # wrappers record spans only while on[0] is true
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def open_in(self, nid: int) -> bool:
        """True iff a span of this layer is open."""
        name_of = self.name_of
        return any(name_of[j] == nid for j in self.stack[1:])

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        nid = self.ids[name]
        calls = self.calls
        stack = self.stack
        name_app = self.name_of.append
        parent_app = self.parent.append
        start_app = self.start.append
        end_app = self.end.append
        end = self.end
        starts = self.start

        on = self.on

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            state = pre(args) if pre is not None else None
            calls[nid] += 1
            i = len(starts)
            name_app(nid)
            parent_app(stack[-1])
            end_app(0.0)
            stack.append(i)
            start_app(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if post is not None:
                post(state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        """A span per resumption, so the spans cover iteration, not creation."""
        nid = self.ids[name]
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on[0]:
                yield from fn(*args, **kwargs)
                return
            tracer.calls[nid] += 1
            it = fn(*args, **kwargs)
            yielded = 0
            try:
                while True:
                    i = tracer.enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit(i)
                    yielded += 1
                    yield item
            finally:
                it.close()
                tracer.bump(f"{name}.yielded", yielded)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name):
        """(pre, post) callbacks that count the outcomes of one layer."""
        bump = self.bump
        if name == "ogposet.iso":
            return None, lambda _s, r: bump("iso.found", bool(r))
        if name == "molecule.mol_cert":
            return _mol_memo_has, lambda hit, _r: bump("mol_cert.hits", hit)
        if name == "molecule.submolecules":
            return None, lambda _s, r: bump("submolecules.found", len(r))
        if name == "subdivision.trees":
            nid = self.ids[name]
            pre = lambda _a: not self.open_in(nid)
            return pre, lambda top, r: bump("trees.count", len(r) if top else 0)
        if name == "subdivision.enumerate_sd":
            return None, lambda _s, r: bump("sd.elements", r.size)
        if name == "subdivision.tree_leq":
            return None, lambda _s, r: bump("tree_leq.true", bool(r))
        if name == "posets.dismantle":
            return None, lambda _s, r: bump("dismantle.core", r.n)
        if name == "dcomplex.paste_diagrams":
            return None, lambda _s, _r: bump("paste_diagrams.ok")
        return None, None

    def install(self) -> None:
        """Replace every wrapped binding; ``uninstall`` puts them back."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items()) if n == "dcx" or n.startswith("dcx.")]
        for name, modname, attr in LAYERS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, *self._hooks(name)))
                else:
                    new = self._wrap(name, raw, *self._hooks(name))
                self._undo.append((owner, meth, raw))
                setattr(owner, meth, new)
                continue
            orig = getattr(mod, attr)
            if name in GENERATORS:
                new = self._wrap_generator(name, orig)
            else:
                new = self._wrap(name, orig, *self._hooks(name))
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per layer id, and in slot 0 the unattributed query time."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = [0.0] * len(self.names)
        name_of = self.name_of
        for i in range(n):
            out[name_of[i]] += end[i] - start[i] - child[i]
        return out

    def wall(self) -> float:
        """Summed duration of the root (query) spans."""
        start, end = self.start, self.end
        return sum(end[i] - start[i] for i in range(len(start)) if self.parent[i] < 0)

    def metrics(self, untraced_wall: float) -> dict[str, float]:
        selfs = self.self_times()
        wall = self.wall()
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = selfs[nid]
        c = self.counts.get
        calls = dict(zip(self.names, self.calls))

        def ratio(num, den):
            return num / den if den else 0.0

        out["ogposet.iso.found_ratio"] = ratio(c("iso.found", 0), calls["ogposet.iso"])
        out["molecule.mol_cert.memo_hit_ratio"] = ratio(
            c("mol_cert.hits", 0), calls["molecule.mol_cert"]
        )
        out["molecule.splits.yielded"] = c("molecule.splits.yielded", 0)
        out["molecule.splits.per_call"] = ratio(
            c("molecule.splits.yielded", 0), calls["molecule.splits"]
        )
        out["molecule.submolecules.found"] = c("submolecules.found", 0)
        out["subdivision.trees.count"] = c("trees.count", 0)
        out["subdivision.trees.dedup_ratio"] = ratio(c("sd.elements", 0), c("trees.count", 0))
        out["subdivision.tree_leq.true_frac"] = ratio(
            c("tree_leq.true", 0), calls["subdivision.tree_leq"]
        )
        out["posets.dismantle.core_size"] = ratio(c("dismantle.core", 0), calls["posets.dismantle"])
        out["dcomplex.paste_diagrams.ok"] = c("paste_diagrams.ok", 0)
        out["dcomplex.paste_diagrams.success_ratio"] = ratio(
            c("paste_diagrams.ok", 0), calls["dcomplex.paste_diagrams"]
        )
        out["trace.wall_s"] = wall
        out["trace.untraced_wall_s"] = untraced_wall
        out["trace.overhead"] = ratio(wall, untraced_wall)
        out["trace.unattributed_s"] = selfs[0]
        out["trace.spans"] = len(self.start)
        return out

    def attribution_gap(self) -> float:
        """|sum of layer self times + unattributed - traced wall|; 0 up to rounding."""
        return abs(sum(self.self_times()) - self.wall())

    def write(self, path) -> None:
        """Write the spans: a JSON header line, then the raw arrays, gzipped."""
        header = {
            "format": "perfbench-spans/1",
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read_spans(path) -> tuple[list[str], list[tuple[str, int, float, float]]]:
    """Read a span file back as (names, [(name, parent, start, end), ...])."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * n))
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            arrays.append(arr)
    names = header["names"]
    name_of, parent, start, end = arrays
    return names, [(names[name_of[i]], parent[i], start[i], end[i]) for i in range(n)]


def _mol_memo_has(args) -> bool:
    """Whether ``mol_cert(P, masks)`` is about to be answered from its memo.

    Reads the poset's memo table; reports a miss if its layout changes.
    """
    P, masks = args[0], args[1]
    memo = getattr(P, "_memo", None)
    if not isinstance(memo, dict):
        return False
    table = memo.get("mol")
    return isinstance(table, dict) and masks in table
