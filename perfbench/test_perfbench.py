"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench`` or
``python3 -m unittest perfbench.test_perfbench``.
"""
from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from perfbench import run

dcx = run.load_library()

from perfbench import inputs, tracing, workloads  # noqa: E402  (needs src/ on the path)
from perfbench.calibrate import Calibrator  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def opts(**kw):
    base = dict(n=4, seed=7)
    base.update(kw)
    return argparse.Namespace(**base)


class TinyCheck(workloads.CheckWorkload):
    corpus_seed = 3
    max_elements = 9
    large_n = 3


class TinySd(workloads.SdWorkload):
    SPECS = (
        ("single path(3) {0}", "a", lambda: dcx.path(3), (0,), 4, 4),
        ("multi theta {0,1}", "b", lambda: dcx.theta_from_tree("((),())"), (0, 1), 2, 1),
    )


class TinyComplex(workloads.ComplexWorkload):
    simplex_n = 2
    SPECS = (("molecules max_cells=1", "a", 1, 0, ""),)


def setup_workload(cls, tmp, **kw):
    wl = cls(opts(**kw), tmp)
    wl.setup()
    return wl


class InputTests(unittest.TestCase):
    def test_relabel_keeps_the_isomorphism_class(self):
        mol = dcx.oriental(3)
        faces = dcx.serialize.ogposet_to_data(mol.poset)["faces"]
        new = inputs.relabel_faces(faces, random.Random(1))
        self.assertNotEqual(new, faces)
        P = dcx.serialize.ogposet_from_data({"format": "ogposet/1", "faces": new})
        self.assertEqual(P.canonical_key(), mol.key)
        self.assertEqual(inputs.properties(new), inputs.properties(faces))

    def test_properties_count_high_maximal_elements(self):
        props = inputs.properties(
            dcx.serialize.ogposet_to_data(dcx.paste(dcx.globe(2), dcx.globe(2), 0).poset)["faces"]
        )
        self.assertEqual(props["dim"], 2)
        self.assertEqual(props["high_max"], [2, 2])

    def test_hasse_acyclic_finds_a_cycle(self):
        loop = [[{}, {}], [{"-": [0], "+": [1]}, {"-": [1], "+": [0]}]]
        self.assertFalse(inputs.hasse_acyclic(loop))
        faces = dcx.serialize.ogposet_to_data(dcx.oriental(4).poset)["faces"]
        self.assertTrue(inputs.hasse_acyclic(faces))

    def test_order_summary_of_a_square(self):
        ups = [0b1110, 0b1000, 0b1000, 0]
        self.assertEqual(
            inputs.order_summary(4, ups.__getitem__),
            {"elements": 4, "covers": 4, "bottom": True, "top": True},
        )


class CheckerTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_check_flags_wrong_answers(self):
        wl = setup_workload(TinyCheck, self.tmp)
        answers = run.run_pass(wl, run.Timer(Calibrator()))
        self.assertEqual(run.judge(wl, answers), [])
        fa = next(a for a in answers if a.query.cls == "b")
        fa.value = (1, json.dumps({"holds": False, "property": "frame-acyclic"}))
        mol = next(
            a for a in answers if a.query.cls == "a" and wl.items[a.query.index]["props"]["elements"] > 1
        )
        doc = json.loads(mol.value[1])
        doc["certificate"] = ["point"]
        mol.value = (0, json.dumps(doc))
        failures = run.judge(wl, answers)
        self.assertEqual(len(failures), 2)
        self.assertIn("holds=True", failures[0] + failures[1])
        self.assertIn("certificate", failures[0] + failures[1])

    def test_sd_flags_wrong_cover_count_and_homology(self):
        wl = setup_workload(TinySd, self.tmp)
        answers = run.run_pass(wl, run.Timer(Calibrator()))
        self.assertEqual(run.judge(wl, answers), [])
        answers[0].value["covers"] += 1
        answers[1].value["report"]["reduced_betti"] = [1]
        failures = run.judge(wl, answers)
        self.assertEqual(len(failures), 2)
        self.assertIn("covers", failures[0])
        self.assertIn("homology", failures[1])

    def test_complex_digest_ignores_the_seed_and_flags_missing_diagrams(self):
        digests = []
        for seed in (1, 2):
            wl = setup_workload(TinyComplex, self.tmp, seed=seed)
            (answer,) = run.run_pass(wl, run.Timer(Calibrator()))
            digests.append(answer.value["digest"])
        self.assertEqual(digests[0], digests[1])
        count = answer.value["count"]
        wl.SPECS = (("molecules max_cells=1", "a", 1, count, digests[0]),)
        self.assertEqual(run.judge(wl, [answer]), [])
        answer.value["count"] -= 1
        self.assertIn("diagrams; expected", run.judge(wl, [answer])[0])

    def test_exceptions_count_as_failures(self):
        wl = setup_workload(TinySd, self.tmp)
        wl.items[0]["levels"] = (-1,)
        answers = run.run_pass(wl, run.Timer(Calibrator()))
        failures = run.judge(wl, answers)
        self.assertEqual(len(failures), 1)
        self.assertIn("PreconditionError", failures[0])


class TracingTests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def traced_pass(self, wl):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            answers = run.run_pass(wl, run.Timer(Calibrator(), tracer))
        finally:
            tracer.uninstall()
        return tracer, answers

    def test_traced_and_untraced_outputs_agree(self):
        for cls in (TinyCheck, TinySd, TinyComplex):
            wl = setup_workload(cls, self.tmp)
            plain = run.run_pass(wl, run.Timer(Calibrator()))
            tracer, traced = self.traced_pass(wl)
            self.assertEqual([a.value for a in plain], [a.value for a in traced])
            self.assertGreater(len(tracer.start), len(traced))
            self.assertLess(tracer.attribution_gap(), 1e-9)

    def test_uninstall_restores_every_binding(self):
        import dcx.flow
        import dcx.molecule

        before = (dcx.molecule.mol_cert, dcx.flow.splits_masks, dcx.OgPoset.__dict__["__init__"])
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(dcx.flow.mol_cert, before[0])
        self.assertIs(dcx.flow.mol_cert, dcx.molecule.mol_cert)
        tracer.uninstall()
        after = (dcx.molecule.mol_cert, dcx.flow.splits_masks, dcx.OgPoset.__dict__["__init__"])
        self.assertEqual(before, after)

    def test_generator_spans_cover_iteration(self):
        U = dcx.paste(dcx.globe(2), dcx.globe(2), 1)
        P = U.poset
        tracer = tracing.Tracer()
        tracer.install()
        try:
            root = tracer.enter(0)
            found = list(dcx.molecule.splits_masks(P, P.full_masks(), 1))
            tracer.exit(root)
        finally:
            tracer.uninstall()
        m = tracer.metrics(1.0)
        self.assertEqual(m["molecule.splits.calls"], 1)
        self.assertEqual(m["molecule.splits.yielded"], len(found))
        # the split search checks each side with mol_cert from inside the
        # generator, so every other span lies under a splits span
        sid, mid = tracer.ids["molecule.splits"], tracer.ids["molecule.mol_cert"]
        name_of, parent = tracer.name_of, tracer.parent
        self.assertTrue(any(name_of[i] == mid and name_of[parent[i]] == sid for i in range(1, len(parent))))
        for i in range(1, len(parent)):
            j = i
            while j != root and name_of[j] != sid:
                j = parent[j]
            self.assertNotEqual(j, root)

    def test_spans_round_trip_through_the_file(self):
        wl = setup_workload(TinySd, self.tmp)
        tracer, _ = self.traced_pass(wl)
        path = Path(self.tmp) / "t.spans.gz"
        tracer.write(path)
        names, spans = tracing.read_spans(path)
        self.assertEqual(names, tracer.names)
        self.assertEqual(len(spans), len(tracer.start))
        self.assertEqual(spans[0][:2], ("query", -1))


class ContractTests(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            tracing.per_layer_specs(),
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sd", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
