"""The benchmark workloads: inputs, the timed queries and their checks.

Each workload builds its inputs in ``setup`` from the run's seed, then
lists the queries of one pass.  A query is prepared (untimed), called
(timed), summarised and later judged against an answer known without the
code being timed.  Library calls go through module attributes (``dcx.x``,
``dcx.cli.run``) so that the traced run's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Optional

import dcx
import dcx.cli
import dcx.serialize

from . import inputs

SD_MULTI_TREE = "(((),()),((),()),((),()))"

# Module-level caches of the library, emptied before every query so that
# no query profits from an earlier one.
MODULE_CACHES = (("dcx.molecule", "_globes"), ("dcx.dcomplex", "_oriental_cache"))


def reset_caches() -> None:
    for modname, attr in MODULE_CACHES:
        cache = getattr(sys.modules.get(modname), attr, None)
        if isinstance(cache, dict):
            cache.clear()


@dataclass(frozen=True)
class Query:
    label: str
    cls: str  # "a" or "b": the metric class; "c": reported through large_s only
    index: int


@dataclass
class Answer:
    query: Query
    seconds: float  # measured, calibration samples left out
    error: Optional[str]
    value: Any
    started: float  # perf_counter() at the start and end of the call
    ended: float


def _faces_of(mol) -> list:
    return dcx.serialize.ogposet_to_data(mol.poset)["faces"]


def _poset_of(faces):
    return dcx.serialize.ogposet_from_data({"format": "ogposet/1", "faces": faces})


def _histogram(values) -> dict:
    out: dict[str, int] = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return dict(sorted(out.items(), key=lambda kv: int(kv[0])))


class CheckWorkload:
    """``dcx check molecule`` then ``check frame-acyclic`` on a random corpus,
    ending with ``check frame-acyclic`` on the oriented 6-simplex."""

    name = "check"
    pass_seconds = 20  # nominal calibrated length of one pass
    setup_reps = 3
    corpus_seed = 20260809
    # random_molecules caps molecules at 25 elements by default; with that cap
    # one pass takes about 50 s, too long for the runs a comparison needs.
    max_elements = 22
    large_n = 6  # the final query runs on oriental(large_n)

    def __init__(self, opts, workdir):
        self.n = opts.n
        self.seed = opts.seed
        self.workdir = workdir

    def setup(self) -> None:
        rng = random.Random(self.seed)
        corpus = dcx.random_molecules(self.n, self.corpus_seed, max_elements=self.max_elements)
        self.items = []
        for i, mol in enumerate(corpus + [dcx.oriental(self.large_n)]):
            faces = inputs.relabel_faces(_faces_of(mol), rng)
            name = f"m{i:03d}" if i < len(corpus) else f"oriental{self.large_n}"
            path = os.path.join(self.workdir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dcx.serialize.dumps_json({"format": "ogposet/1", "faces": faces}))
            props = inputs.properties(faces)
            self.items.append(
                {
                    "name": name,
                    "path": path,
                    "key": mol.key,
                    "props": props,
                    "frame_acyclic": inputs.expected_frame_acyclic(props, faces),
                }
            )
        self._queries = []
        for i in range(len(corpus)):
            self._queries.append(Query(f"molecule {self.items[i]['name']}", "a", i))
            self._queries.append(Query(f"frame-acyclic {self.items[i]['name']}", "b", i))
        self._queries.append(Query(f"frame-acyclic {self.items[-1]['name']}", "c", len(corpus)))

    def queries(self) -> list[Query]:
        return self._queries

    def prepare(self, q: Query):
        prop = q.label.split()[0]
        return ["check", prop, self.items[q.index]["path"]]

    @staticmethod
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = dcx.cli.run(argv)
        return rc, buf.getvalue()

    def summarize(self, q: Query, value):
        return value

    def judge(self, q: Query, value) -> Optional[str]:
        rc, text = value
        try:
            doc = json.loads(text)
        except ValueError:
            return f"output is not JSON: {text[:80]!r}"
        prop = q.label.split()[0]
        item = self.items[q.index]
        want = True if prop == "molecule" else item["frame_acyclic"]
        if rc != (0 if want else 1) or doc.get("holds") is not want or doc.get("property") != prop:
            return f"exit {rc}, output {text[:120]!r}; expected holds={want}"
        if prop == "molecule":
            cert = dcx.serialize.cert_from_data(doc["certificate"])
            if dcx.replay(cert).key != item["key"]:
                return "certificate does not replay to the input's canonical key"
        return None

    def ops(self, q: Query, value) -> int:
        return 1

    def properties(self) -> dict:
        corpus = [it["props"] for it in self.items[:-1]]
        sizes = [p["elements"] for p in corpus]
        top = max(p["dim"] for p in corpus)
        return {
            "corpus": {
                "count": len(corpus),
                "seed": self.corpus_seed,
                "max_elements": self.max_elements,
                "elements": {
                    "min": min(sizes),
                    "median": statistics.median(sizes),
                    "max": max(sizes),
                },
                "dim": _histogram(p["dim"] for p in corpus),
                "high_max": {
                    f"level{k}": _histogram(p["high_max"][k] for p in corpus if p["dim"] > k)
                    for k in range(top)
                },
            },
            "large": self.items[-1]["props"],
        }

    def item_properties(self) -> list:
        return [dict(it["props"], name=it["name"]) for it in self.items]


class SdWorkload:
    """Subdivision posets plus their homology evidence, at one and two levels."""

    name = "sd"
    pass_seconds = 12  # nominal calibrated length of one pass
    setup_reps = 10

    SPECS = (
        # label, class, molecule builder, levels, elements, covers
        ("single path(10) {0}", "a", lambda: dcx.path(10), (0,), 512, 2304),
        ("multi theta {0,1}", "b", lambda: dcx.theta_from_tree(SD_MULTI_TREE), (0, 1), 930, 3741),
    )

    def __init__(self, opts, workdir):
        self.seed = opts.seed

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.items = []
        for label, _cls, build, levels, n, covers in self.SPECS:
            mol = build()
            faces = inputs.relabel_faces(_faces_of(mol), rng)
            self.items.append(
                {
                    "faces": faces,
                    "cert": mol.cert,
                    "levels": levels,
                    "elements": n,
                    "covers": covers,
                    "props": inputs.properties(faces),
                }
            )
        self._queries = [Query(spec[0], spec[1], i) for i, spec in enumerate(self.SPECS)]

    def queries(self) -> list[Query]:
        return self._queries

    def prepare(self, q: Query):
        item = self.items[q.index]
        return dcx.Molecule(_poset_of(item["faces"]), item["cert"]), set(item["levels"])

    @staticmethod
    def call(args):
        mol, levels = args
        sdp = dcx.enumerate_sd(mol, levels)
        return sdp, dcx.poset_homology(sdp.sd())

    def summarize(self, q: Query, value):
        sdp, report = value
        out = inputs.order_summary(sdp.size, sdp.poset.up_mask)
        out["report"] = report.to_json()
        return out

    def judge(self, q: Query, value) -> Optional[str]:
        item = self.items[q.index]
        rep = value["report"]
        if value["elements"] != item["elements"] or value["covers"] != item["covers"]:
            return (
                f"{value['elements']} elements and {value['covers']} covers; expected "
                f"{item['elements']} and {item['covers']}"
            )
        if not (value["bottom"] and value["top"]):
            return "subdivision poset lacks a bottom or a top"
        if rep["empty"] or not rep["connected"] or not rep["dismantlable"]:
            return f"contractibility evidence fails: {rep}"
        if any(rep["reduced_betti"]) or any(rep["torsion"]):
            return f"nonzero reduced homology: {rep}"
        return None

    def ops(self, q: Query, value) -> int:
        return value["elements"]

    def properties(self) -> dict:
        return {q.label: self.items[q.index]["props"] for q in self._queries}

    def item_properties(self) -> list:
        return [dict(it["props"], name=q.label) for q, it in zip(self._queries, self.items)]


class ComplexWorkload:
    """Pasting diagrams over the directed complex of the 4-simplex."""

    name = "complex"
    pass_seconds = 9  # nominal calibrated length of one pass
    setup_reps = 10
    simplex_n = 4  # the complex of the standard simplex of this dimension

    SPECS = (
        # label, class, max_cells, diagrams, digest of the sorted diagram keys
        ("molecules max_cells=2", "a", 2, 79, "115ff90da26ac165"),
        ("molecules max_cells=3", "b", 3, 90, "0f9dde683e111134"),
    )

    def __init__(self, opts, workdir):
        self.seed = opts.seed

    def setup(self) -> None:
        rng = random.Random(self.seed)
        base = dcx.SemiSimplicialSet.standard_simplex(self.simplex_n)
        self.faces, self.inverse = inputs.relabel_ssset([base.n_vertices] + base.faces, rng)
        X = self._complex()
        self.props = {
            "cells": [len(level) for level in X.cells],
            "shape_elements": [level[0].shape.size() for level in X.cells],
            "dim": X.dim,
        }
        self._queries = [Query(spec[0], spec[1], i) for i, spec in enumerate(self.SPECS)]

    def _complex(self):
        return dcx.import_ssset(dcx.SemiSimplicialSet(self.faces))

    def queries(self) -> list[Query]:
        return self._queries

    def prepare(self, q: Query):
        return self._complex(), self.SPECS[q.index][2]

    @staticmethod
    def call(args):
        X, max_cells = args
        return dcx.enumerate_molecules(X, max_cells)

    def summarize(self, q: Query, diagrams):
        invalid = None
        for d in diagrams:
            try:
                d.validate()
            except dcx.DcxError as exc:
                invalid = str(exc)
                break
        return {
            "count": len(diagrams),
            "distinct": len({d.key for d in diagrams}),
            "invalid": invalid,
            "digest": self.keys_digest(diagrams),
        }

    def _seedless_key(self, diag) -> bytes:
        """The diagram's key with cell ids mapped back to the unpermuted complex."""
        labels = {el: (cid[0], self.inverse[cid[0]][cid[1]]) for el, cid in diag.labels.items()}
        return dcx.PastingDiagram(diag.complex, diag.shape, labels).key

    def keys_digest(self, diagrams) -> str:
        keys = sorted(self._seedless_key(d) for d in diagrams)
        return hashlib.sha256(b"\n".join(keys)).hexdigest()[:16]

    def judge(self, q: Query, value) -> Optional[str]:
        _label, _cls, _mc, count, digest = self.SPECS[q.index]
        if value["count"] != count:
            return f"{value['count']} diagrams; expected {count}"
        if value["distinct"] != count:
            return "duplicate diagram keys"
        if value["invalid"] is not None:
            return f"diagram fails validation: {value['invalid']}"
        if value["digest"] != digest:
            return f"diagram key digest {value['digest']}; expected {digest}"
        return None

    def ops(self, q: Query, value) -> int:
        return value["count"]

    def properties(self) -> dict:
        return self.props

    def item_properties(self) -> list:
        return [self.props]


WORKLOADS = {w.name: w for w in (CheckWorkload, SdWorkload, ComplexWorkload)}
