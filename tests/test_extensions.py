"""Extensions: contact method, RCCE collectives, tracing, report,
streaming master, blocked pairs, frequency/memory ablations."""

import numpy as np
import pytest

from repro.cost.counters import CostCounter
from repro.datasets import load_dataset
from repro.datasets.pairs import all_vs_all_pairs, blocked_pairs
from repro.psc.contact import ContactProfileMethod
from repro.scc.machine import SccMachine
from repro.scc.rcce import Rcce
from repro.scc.trace import Tracer, render_gantt


class TestContactProfileMethod:
    def test_self_similarity_high(self, small_fold_pair):
        parent, _ = small_fold_pair
        m = ContactProfileMethod()
        r = m.compare(parent, parent, CostCounter())
        assert r["similarity"] > 0.9

    def test_family_beats_stranger(self, small_fold_pair, unrelated_fold):
        parent, child = small_fold_pair
        m = ContactProfileMethod()
        fam = m.compare(parent, child, CostCounter())["similarity"]
        cross = m.compare(parent, unrelated_fold, CostCounter())["similarity"]
        assert fam > cross

    def test_cost_between_tmalign_and_sse(self):
        from repro.cost.cpu import P54C_800
        from repro.psc.methods import get_method

        tm = P54C_800.cycles(dict(get_method("tmalign").estimate_counts(150, 150)))
        cp = P54C_800.cycles(dict(ContactProfileMethod().estimate_counts(150, 150)))
        sse = P54C_800.cycles(
            dict(get_method("sse_composition").estimate_counts(150, 150))
        )
        assert sse < cp < tm

    def test_registered(self):
        from repro.psc import METHOD_REGISTRY, get_method

        assert "contact_profile" in METHOD_REGISTRY
        assert isinstance(get_method("contact_profile"), ContactProfileMethod)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContactProfileMethod(cutoff=-1)
        with pytest.raises(ValueError):
            ContactProfileMethod(smooth_window=4)


class TestRcceCollectives:
    def _run(self, programs):
        m = SccMachine()
        rcce = Rcce(m)
        for core_id, prog in programs(rcce):
            m.spawn(core_id, prog)
        m.run()
        return m

    def test_scatter(self):
        got = {}

        def programs(rcce):
            group = [0, 1, 2, 3]

            def prog(core):
                items = [10, 11, 12, 13] if core.id == 0 else None
                mine = yield from rcce.scatter(core, 0, group, items)
                got[core.id] = mine

            return [(c, prog) for c in group]

        self._run(programs)
        assert got == {0: 10, 1: 11, 2: 12, 3: 13}

    def test_scatter_needs_matching_items(self):
        def programs(rcce):
            def root(core):
                yield from rcce.scatter(core, 0, [0, 1], [1, 2, 3])

            def member(core):
                yield from rcce.scatter(core, 0, [0, 1])

            return [(0, root), (1, member)]

        with pytest.raises(ValueError):
            self._run(programs)

    def test_gather(self):
        got = {}

        def programs(rcce):
            group = [0, 1, 2]

            def prog(core):
                out = yield from rcce.gather(core, 0, group, core.id * 100)
                got[core.id] = out

            return [(c, prog) for c in group]

        self._run(programs)
        assert got[0] == [0, 100, 200]
        assert got[1] is None and got[2] is None

    def test_reduce_sum_and_custom_op(self):
        got = {}

        def programs(rcce):
            group = [0, 1, 2, 3]

            def prog(core):
                total = yield from rcce.reduce(core, 0, group, core.id + 1)
                got.setdefault("sum", total) if core.id == 0 else None
                biggest = yield from rcce.reduce(core, 0, group, core.id, op=max)
                if core.id == 0:
                    got["max"] = biggest

            return [(c, prog) for c in group]

        self._run(programs)
        assert got["sum"] == 10
        assert got["max"] == 3


class TestTracer:
    def test_records_compute_intervals(self):
        m = SccMachine()
        tracer = Tracer(m)

        def prog(core):
            yield from core.compute_cycles(800e6)  # 1 s
            yield core.env.timeout(1.0)  # idle second
            yield from core.compute_cycles(400e6)  # 0.5 s

        m.spawn(0, prog)
        m.run()
        ivs = tracer.core_intervals(0)
        assert len(ivs) == 2
        assert ivs[0].duration == pytest.approx(1.0)
        assert ivs[1].duration == pytest.approx(0.5)
        assert tracer.busy_fraction(0) == pytest.approx(1.5 / 2.5)

    def test_gantt_renders(self):
        m = SccMachine()
        tracer = Tracer(m)

        def prog(core):
            yield from core.compute_cycles(800e6)

        m.spawn(0, prog)
        m.spawn(3, prog)
        m.run()
        chart = render_gantt(tracer)
        assert "rck00" in chart and "rck03" in chart
        assert "#" in chart

    def test_empty_trace(self):
        m = SccMachine()
        tracer = Tracer(m)
        assert "no simulated time" in render_gantt(tracer)

    def test_comm_intervals_recorded_for_rcce_traffic(self):
        from repro.scc.rcce import Rcce

        m = SccMachine()
        tracer = Tracer(m)
        rcce = Rcce(m)

        def sender(core):
            yield from rcce.send(core, 1, payload="ping", nbytes=4096)

        def receiver(core):
            yield from rcce.recv(core, 0)

        m.spawn(0, sender)
        m.spawn(1, receiver)
        m.run()
        assert tracer.kind_intervals(0, "comm")
        assert tracer.kind_intervals(1, "comm")
        assert tracer.kind_intervals(0, "compute") == []

    def test_dram_reads_traced_as_comm(self):
        m = SccMachine()
        tracer = Tracer(m)

        def prog(core):
            yield from core.dram_read(1 << 20)

        m.spawn(0, prog)
        m.run()
        ivs = tracer.kind_intervals(0, "comm")
        assert len(ivs) == 1
        assert ivs[0].duration > 0

    def test_compute_only_program_has_no_comm_intervals(self):
        # the pre-existing contract: a pure-compute program records
        # exactly its compute bursts, nothing else
        m = SccMachine()
        tracer = Tracer(m)

        def prog(core):
            yield from core.compute_cycles(800e6)

        m.spawn(0, prog)
        m.run()
        assert len(tracer.intervals) == 1
        assert tracer.intervals[0].kind == "compute"

    def test_chrome_trace_export(self):
        import json

        from repro.scc.trace import chrome_trace

        m = SccMachine()
        tracer = Tracer(m)

        def prog(core):
            yield from core.compute_cycles(800e6)
            yield from core.dram_read(1 << 20)

        m.spawn(0, prog)
        m.spawn(3, prog)
        m.run()
        doc = json.loads(chrome_trace(tracer))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["tid"] for e in events} == {0, 3}
        assert {e["name"] for e in events} == {"compute", "comm"}
        assert {m_["args"]["name"] for m_ in meta} == {"rck00", "rck03"}
        compute = next(e for e in events if e["name"] == "compute")
        assert compute["dur"] == pytest.approx(1e6)  # 1 s in microseconds
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)


class TestReportFormatter:
    def test_report_layout(self, small_fold_pair):
        from repro.tmalign import tm_align
        from repro.tmalign.report import format_tmalign_report

        parent, child = small_fold_pair
        res = tm_align(parent, child)
        text = format_tmalign_report(res, parent, child)
        assert f"Name of Chain_1: {parent.name}" in text
        assert "TM-score=" in text
        assert "Rotation matrix" in text
        assert parent.sequence[0] in text

    def test_wrong_chains_rejected(self, small_fold_pair, unrelated_fold):
        from repro.tmalign import tm_align
        from repro.tmalign.report import format_tmalign_report

        parent, child = small_fold_pair
        res = tm_align(parent, child)
        with pytest.raises(ValueError):
            format_tmalign_report(res, parent, unrelated_fold)


class TestBlockedPairs:
    def test_same_pair_set_as_natural(self):
        for n, block in ((10, 3), (7, 7), (12, 1), (5, 2)):
            natural = set(all_vs_all_pairs(n))
            blocked = list(blocked_pairs(n, block))
            assert set(blocked) == natural
            assert len(blocked) == len(natural)  # no duplicates

    def test_locality(self):
        """Within the stream, the working set of any window of block²
        pairs touches at most ~2 blocks of structures."""
        block = 4
        pairs = list(blocked_pairs(16, block))
        window = pairs[: block * block]
        touched = {i for p in window for i in p}
        assert len(touched) <= 2 * block

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            list(blocked_pairs(5, 0))


class TestStreamingMaster:
    def test_fault_counts_and_correctness(self):
        from repro.core.rckalign import RckAlignConfig, run_rckalign
        from repro.psc.evaluator import JobEvaluator

        ds = load_dataset("ck34-mini")
        ev = JobEvaluator(ds)
        full = run_rckalign(RckAlignConfig(dataset=ds, n_slaves=4), evaluator=ev)
        stream = run_rckalign(
            RckAlignConfig(
                dataset=ds, n_slaves=4, memory_limit_chains=4, pair_order="blocked"
            ),
            evaluator=ev,
        )
        assert full.structure_faults == 0
        assert stream.structure_faults >= len(ds)
        assert len(stream.results) == len(full.results)

    def test_blocked_order_reduces_faults(self):
        from repro.core.rckalign import RckAlignConfig, run_rckalign
        from repro.psc.evaluator import JobEvaluator

        ds = load_dataset("ck34")
        ev = JobEvaluator(ds)
        nat = run_rckalign(
            RckAlignConfig(dataset=ds, n_slaves=4, memory_limit_chains=8),
            evaluator=ev,
        )
        blk = run_rckalign(
            RckAlignConfig(
                dataset=ds, n_slaves=4, memory_limit_chains=8, pair_order="blocked"
            ),
            evaluator=ev,
        )
        assert blk.structure_faults < nat.structure_faults / 1.5

    def test_limit_too_small_rejected(self):
        from repro.core.rckalign import RckAlignConfig, run_rckalign

        with pytest.raises(ValueError):
            run_rckalign(
                RckAlignConfig(dataset="ck34-mini", n_slaves=2, memory_limit_chains=1)
            )


class TestNewAblations:
    def test_frequency_scaling_reduces_efficiency(self):
        from repro.experiments.ablations import run_ablation_frequency

        res = run_ablation_frequency(dataset="ck34", n_slaves=47, multipliers=(1.0, 4.0))
        eff = [row[4] for row in res.rows]
        assert eff[1] < eff[0]  # faster cores -> lower efficiency

    def test_memory_ablation_rows(self):
        from repro.experiments.ablations import run_ablation_memory

        res = run_ablation_memory(dataset="ck34-mini", n_slaves=4, limits=(4, 6))
        assert len(res.rows) == 5  # preload + natural/blocked per limit
        preload_faults = res.rows[0][3]
        assert preload_faults == 0
        for natural, blocked in zip(res.rows[1::2], res.rows[2::2]):
            assert (natural[1], blocked[1]) == ("natural", "blocked")
            assert blocked[3] < natural[3]

    def test_energy_falls_as_slaves_are_added(self):
        from repro.experiments.ablations import run_ablation_energy

        res = run_ablation_energy(dataset="ck34", slave_counts=(1, 7, 47))
        energies = [row[2] for row in res.rows if isinstance(row[0], int)]
        assert len(energies) == 3 and energies == sorted(energies, reverse=True)

    def test_full_init_set_scores_at_least_threading_only(self):
        from repro.experiments.ablations import run_ablation_inits

        res = run_ablation_inits(dataset="ck34", n_pairs=8)
        by_name = {row[0]: row[1] for row in res.rows}
        assert by_name["all inits (default)"] >= by_name["threading only"]
