"""Self-tests for the benchmark's arithmetic and tracer.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle
import run
import speed
import stats
import tracing
import workloads


class TailTest(unittest.TestCase):
    def test_highest_step_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(413), 95.0)
        self.assertEqual(stats.tail_percentile(1060), 99.0)
        self.assertEqual(stats.tail_percentile(1999), 99.0)
        self.assertEqual(stats.tail_percentile(2000), 99.5)

    def test_fewer_than_twenty_samples_give_the_median(self):
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(1), 50.0)

    def test_nearest_rank(self):
        ordered = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(ordered, 90.0), 90)
        self.assertEqual(stats.nearest_rank(ordered, 99.5), 100)
        self.assertEqual(stats.nearest_rank([1.0, 2.0, 3.0], 50.0), 2.0)


class TimingsTest(unittest.TestCase):
    def test_throughput_and_tail_from_typical_latencies(self):
        # 3 passes of 20 ops; op i typically takes i + 1, and pass 1 is stretched
        passes = [[float(i + 1) for i in range(20)] for _ in range(3)]
        passes[1] = [10 * x for x in passes[1]]
        t = run._timings([2.0, 1.0, 3.0], passes)
        self.assertEqual(t["setup_s"], 2.0)
        self.assertAlmostEqual(t["ops_per_s"], 20 / 210)
        self.assertEqual(t["op_tail_ms"], 10e3)  # p50 of 20 typical latencies
        self.assertEqual(t["op_p50_ms"], 15e3)  # median of all 60 latencies


class ScalerTest(unittest.TestCase):
    def test_group_scaled_by_median_reference_while_it_ran(self):
        ref = speed.REFERENCE_S
        timings = iter([2 * ref, 2 * ref, 4 * ref, 2 * ref, ref])
        scaler = speed.Scaler(reference=lambda: next(timings))
        scaler.add(0.2)
        scaler.add(speed.SAMPLE_EVERY_S)  # samples 2 * ref
        scaler.close("a")  # samples 4 * ref; median of 2, 2, 4 is 2
        scaler.add(0.1)  # bracketed by 4 * ref and 2 * ref
        scaler.close("b")
        scaler.add(0.1)  # bracketed by 2 * ref and ref
        scaler.close("c")
        (ka, raw_a, a), (kb, _, b), (kc, _, c) = scaler.groups
        self.assertEqual((ka, kb, kc), ("a", "b", "c"))
        self.assertEqual(raw_a, [0.2, speed.SAMPLE_EVERY_S])
        self.assertAlmostEqual(a, 0.5)
        self.assertAlmostEqual(b, 1 / 3)
        self.assertAlmostEqual(c, 2 / 3)


def span(name, start, end, parent, outcome=None):
    return [name, start, end, parent, outcome]


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span("a", 0.0, 10.0, -1),
            span("b", 1.0, 3.0, 0),
            span("c", 4.0, 8.0, 0),
            span("d", 5.0, 6.0, 2),
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_layer_metrics_per_pass_and_ratios(self):
        search, check = tracing.SEARCH, "ortho.verify_ortholattice"
        spans = [
            span(search, 0.0, 8.0, -1, 2),
            span(check, 1.0, 2.0, 0),
            span(check, 2.0, 3.0, 0),
            span(check, 3.0, 4.0, 0),
            span(check, 4.0, 5.0, 0),
            span(check, 9.0, 10.0, -1),  # outside the search
            span(tracing.LRG, 10.0, 11.0, -1, 1),
            span(tracing.LRG, 11.0, 12.0, -1, 0),
            span("cli.main", 12.0, 13.0, -1, tracing.RAISED),
            span("cli.main", 13.0, 14.0, -1),
        ]
        m = tracing.layer_metrics(spans, passes=2)
        self.assertEqual(m[f"{search}.self_s"], (2.0, "s"))
        self.assertEqual(m[f"{check}.calls"], (2.5, "count"))
        self.assertEqual(m["search.orthocomplements.accept_ratio"], (0.5, "ratio"))
        self.assertEqual(m["residuated.verify_lrg.fail_share"], (0.5, "ratio"))
        self.assertEqual(m["cli.main.uncaught"], (0.5, "count"))
        self.assertEqual(m["order.canonical_certificate.calls"], (0.0, "count"))


class TracerTest(unittest.TestCase):
    def test_internal_calls_are_traced_and_bindings_restored(self):
        import omlat.order
        import omlat.search

        original = omlat.order.canonical_certificate
        tracer = tracing.Tracer()
        self.assertEqual(tracer.absent, [])
        tracer.install()
        try:
            self.assertIsNot(omlat.search.canonical_certificate, original)
            omlat.search.enumerate_bounded_lattices(omlat.search.EnumerationConfig(4))
        finally:
            tracer.uninstall()
        self.assertIs(omlat.search.canonical_certificate, original)
        m = tracing.layer_metrics(tracer.spans, passes=1)
        self.assertEqual(m["order.canonical_certificate.calls"][0], 5)  # 1+1+1+2
        self.assertEqual(m["search.enumerate_bounded_lattices.calls"][0], 1)

    def test_missing_function_is_reported_absent(self):
        import omlat.correspondence

        saved = omlat.correspondence.induced_oml
        del omlat.correspondence.induced_oml
        try:
            tracer = tracing.Tracer()
        finally:
            omlat.correspondence.induced_oml = saved
        self.assertEqual(tracer.absent, ["correspondence.induced_oml"])
        m = tracing.layer_metrics(tracer.spans, passes=1)
        self.assertEqual(m["correspondence.induced_oml.calls"], (0.0, "count"))


class OracleTest(unittest.TestCase):
    def test_shuffled_file_keeps_its_structure(self):
        text = (
            "kind: ortho\nelements: 0 a b 1\ncovers: 0<a 0<b a<1 b<1\n"
            "comp: 0=1 a=b b=a 1=0\n"
        )
        shuffled = workloads.shuffle_elements(text, random.Random(3))
        s = oracle.read_structure(shuffled)
        self.assertEqual(sorted(s["elements"]), ["0", "1", "a", "b"])
        self.assertEqual(s["comp"], {"0": "1", "a": "b", "b": "a", "1": "0"})
        self.assertEqual(workloads._classify_ortho(shuffled), (4, True))

    def test_shuffled_groupoid_keeps_its_tables(self):
        import omlat

        names, covers = workloads._mo(2)
        lattice = omlat.lattice_from_covers(names, covers)
        g = omlat.sasaki_groupoid(
            omlat.OrthoCandidate(lattice, omlat.enumerate_orthocomplements(lattice)[0])
        )
        text = omlat.serialize_structure(g)
        back = omlat.parse_structure(workloads.shuffle_elements(text, random.Random(5)))
        self.assertNotEqual(back.names, g.names)

        def by_name(h, table):
            return {
                (h.names[x], h.names[y]): h.names[table[x][y]]
                for x in range(len(h.names))
                for y in range(len(h.names))
            }

        self.assertEqual(by_name(back, back.odot), by_name(g, g.odot))
        self.assertEqual(by_name(back, back.imp), by_name(g, g.imp))

    def test_bowtie_is_not_a_lattice(self):
        s = oracle.read_structure(workloads.MALFORMED["bowtie.lattice"])
        self.assertIsNone(oracle.lattice_tables(s["elements"], s["covers"]))


if __name__ == "__main__":
    unittest.main()
