"""CLI entry point."""

import argparse
import dataclasses
import json

import pytest

from repro.cli import _bench_output, build_parser, main
from repro.experiments import bench as bench_mod


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        for exp in ("table1", "table3", "exp1", "exp2", "table5", "ablations",
                    "exp-resilience", "all"):
            args = parser.parse_args([exp])
            assert args.command == exp

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_flags(self):
        args = build_parser().parse_args(["exp2", "--quick", "--dataset", "rs119"])
        assert args.quick and args.dataset == "rs119"

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp1", "--mode", "psychic"])

    def test_tool_commands_parse(self):
        parser = build_parser()
        args = parser.parse_args(["align", "a", "b", "--dataset", "ck34"])
        assert args.chain_a == "a" and args.chain_b == "b"
        args = parser.parse_args(["search", "q", "--method", "tmalign", "--top", "3"])
        assert args.top == 3
        args = parser.parse_args(["info", "--dataset", "rs119"])
        assert args.dataset == "rs119"

    def test_resilience_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["matrix", "--retries", "3", "--backoff", "0.2",
             "--chunk-timeout", "5", "--inject", "kill@0-3",
             "--run-id", "r1", "--runs-dir", "store"]
        )
        assert args.retries == 3 and args.backoff == 0.2
        assert args.chunk_timeout == 5.0 and args.inject == "kill@0-3"
        assert args.run_id == "r1" and args.runs_dir == "store"
        args = parser.parse_args(["matrix", "--resume", "r1"])
        assert args.resume == "r1"
        args = parser.parse_args(["search", "q", "--retries", "1"])
        assert args.retries == 1

    def test_search_takes_no_fault_plan(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "q", "--inject", "kill@0-1"])
        assert err.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1 and "--inject" in errors[0]

    def test_trace_and_runs_commands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["trace", "--slaves", "7", "--kill", "2", "--seed", "5",
             "--chrome", "t.json", "--gantt"]
        )
        assert args.slaves == 7 and args.kill == 2 and args.seed == 5
        assert args.chrome == "t.json" and args.gantt
        args = parser.parse_args(["runs", "--runs-dir", "elsewhere"])
        assert args.runs_dir == "elsewhere"


class TestBenchOutputFlag:
    def args(self, **kw):
        return argparse.Namespace(
            output=kw.get("output", "bench.json"),
            no_output=kw.get("no_output", False),
        )

    def test_default_keeps_path(self):
        assert _bench_output(self.args()) == "bench.json"

    def test_no_output_flag(self):
        assert _bench_output(self.args(no_output=True)) is None

    def test_empty_output_is_a_usage_error(self, capsys):
        for command in ("bench", "bench-parallel"):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args([command, "--output", ""])
            assert err.value.code == 2
            errors = [
                line for line in capsys.readouterr().err.splitlines()
                if "error:" in line
            ]
            assert len(errors) == 1 and "--no-output" in errors[0]

    def test_empty_output_runs_nothing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(
            bench_mod.SUITES, "kernel",
            dataclasses.replace(
                bench_mod.SUITES["kernel"], run=lambda **kw: calls.append(kw)
            ),
        )
        with pytest.raises(SystemExit) as err:
            main(["bench", "--kernel", "--output", ""])
        assert err.value.code == 2
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_both_commands_expose_no_output(self):
        parser = build_parser()
        assert parser.parse_args(["bench", "--no-output"]).no_output
        assert parser.parse_args(["bench-parallel", "--no-output"]).no_output
        # the removed spelling of --no-output is a usage error
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["bench-parallel", "--workers-grid", "1,2", "--output", ""]
            )


class TestMain:
    def test_table1_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "6x4 mesh" in out

    def test_table3_prints(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "AMD" in out and "P54C" in out

    def test_exp2_quick_single_dataset(self, capsys):
        assert main(["exp2", "--quick", "--dataset", "ck34"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "Figure 6" in out

    def test_exp_resilience_quick(self, capsys):
        # full ck34: a staggered kill plan needs enough jobs per slave
        # for every planned death point to actually be reached
        assert main(["exp-resilience", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "failed slaves" in out
        assert "jobs reassigned" in out

    def test_info(self, capsys):
        assert main(["info", "--dataset", "ck34-mini"]) == 0
        assert "chains" in capsys.readouterr().out

    def test_search_with_cheap_method(self, capsys, tmp_path):
        assert main(
            ["search", "ck_globin_00", "--dataset", "ck34-mini",
             "--method", "sse_composition", "--top", "3",
             "--runs-dir", str(tmp_path / "runs")]
        ) == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "[run search-" in out and "recorded in" in out

    def test_align_by_name(self, capsys, tmp_path):
        from repro.datasets import load_dataset
        from repro.structure import write_pdb_file

        ds = load_dataset("ck34-mini")
        path = tmp_path / "q.pdb"
        write_pdb_file(ds[0], path)
        assert main(["align", str(path), ds[1].name, "--dataset", "ck34-mini"]) == 0
        out = capsys.readouterr().out
        assert "TM-score=" in out
        assert "Rotation matrix" in out

    def test_trace_with_kill_and_chrome_export(self, capsys, tmp_path):
        chrome = tmp_path / "trace.json"
        assert main(
            ["trace", "--dataset", "ck34-mini", "--slaves", "5",
             "--kill", "1", "--chrome", str(chrome), "--gantt"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 slave(s) died" in out
        assert "rck" in out and "#" in out  # the Gantt chart rendered
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert any(e.get("name") == "comm" for e in doc["traceEvents"])


class TestMatrixCommand:
    def run(self, tmp_path, *extra):
        return main(
            ["matrix", "--dataset", "ck34-mini", "--method", "sse_composition",
             "--runs-dir", str(tmp_path / "runs"), *extra]
        )

    def test_matrix_export(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        assert self.run(tmp_path, "--output", str(out_file)) == 0
        assert out_file.exists()
        assert "28 pair scores" in capsys.readouterr().out

    def test_matrix_reports_throughput(self, capsys, tmp_path):
        out_file = tmp_path / "m.csv"
        assert self.run(tmp_path, "--output", str(out_file)) == 0
        out = capsys.readouterr().out
        assert "streamed" in out
        assert "pairs/s" in out
        assert "wall " in out

    def test_matrix_parallel_csv_byte_identical(self, capsys, tmp_path):
        serial = tmp_path / "serial.csv"
        farmed = tmp_path / "farmed.csv"
        assert self.run(tmp_path, "--output", str(serial)) == 0
        assert self.run(tmp_path, "--output", str(farmed),
                        "--workers", "2", "--chunk", "5") == 0
        capsys.readouterr()
        assert farmed.read_bytes() == serial.read_bytes()

    def test_matrix_absorbs_injected_fault_with_retries(self, capsys, tmp_path):
        serial = tmp_path / "serial.csv"
        chaos = tmp_path / "chaos.csv"
        assert self.run(tmp_path, "--output", str(serial)) == 0
        assert self.run(tmp_path, "--output", str(chaos),
                        "--workers", "2", "--chunk", "2",
                        "--retries", "2", "--inject", "raise@0-3") == 0
        out = capsys.readouterr().out
        assert "absorbed faults: 1 chunk retries" in out
        assert chaos.read_bytes() == serial.read_bytes()

    def test_matrix_interrupt_then_resume_byte_identical(self, capsys, tmp_path):
        serial = tmp_path / "serial.csv"
        resumed = tmp_path / "resumed.csv"
        assert self.run(tmp_path, "--output", str(serial)) == 0
        with pytest.raises(SystemExit) as err:
            self.run(tmp_path, "--output", str(resumed),
                     "--run-id", "broken", "--inject", "raise@2-5")
        assert "matrix run failed" in str(err.value)
        assert "--resume broken" in str(err.value)  # the hint names the run
        assert not resumed.exists()  # atomic finalize: no partial CSV
        assert self.run(tmp_path, "--output", str(resumed),
                        "--resume", "broken") == 0
        out = capsys.readouterr().out
        assert "resumed: 15 pairs taken from the journal, 13 computed now" in out
        assert resumed.read_bytes() == serial.read_bytes()

    def test_runs_command_lists_store(self, capsys, tmp_path):
        assert main(["runs", "--runs-dir", str(tmp_path / "runs")]) == 0
        assert "no runs under" in capsys.readouterr().out
        assert self.run(tmp_path, "--output", str(tmp_path / "m.csv"),
                        "--run-id", "my-run") == 0
        capsys.readouterr()
        assert main(["runs", "--runs-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "my-run" in out
        assert "complete" in out
        assert "28/28" in out

    def test_farm_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["matrix", "--workers", "4", "--chunk", "16"])
        assert args.workers == 4 and args.chunk == 16
        args = parser.parse_args(["search", "q", "--workers", "2"])
        assert args.workers == 2 and args.chunk == 0
        args = parser.parse_args(["bench-parallel", "--workers-grid", "1,2"])
        assert args.workers_grid == "1,2" and args.output is None
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["bench-parallel", "--workers-grid", "1,2", "--output", ""]
            )


class TestKernelBaselineCheck:
    """bench --check must fail with one clear line, never a traceback."""

    def test_missing_artifact_is_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--kernel", "--check", "--quick", "--no-micro",
                  "--output", str(tmp_path / "absent.json")])
        msg = str(err.value)
        assert msg.startswith("bench --check:") and "\n" not in msg

    def test_unparsable_artifact_is_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(SystemExit) as err:
            main(["bench", "--kernel", "--check", "--quick", "--no-micro",
                  "--output", str(bad)])
        msg = str(err.value)
        assert msg.startswith("bench --check:") and "\n" not in msg
        assert "pairs_per_second" in msg

    def test_null_rate_is_one_line_error_not_typeerror(self, tmp_path):
        bad = tmp_path / "null.json"
        bad.write_text('{"pairs_per_second": null}')
        with pytest.raises(SystemExit) as err:
            main(["bench", "--kernel", "--check", "--quick", "--no-micro",
                  "--output", str(bad)])
        assert str(err.value).startswith("bench --check:")

    def test_resolver_precedence(self, tmp_path):
        from repro.experiments.bench import (
            KERNEL_BASELINE_PAIRS_PER_SECOND,
            BaselineError,
            resolve_kernel_baseline,
        )

        art = tmp_path / "BENCH_kernel.json"
        art.write_text('{"pairs_per_second": 123.5}')
        # explicit argument beats the artifact
        assert resolve_kernel_baseline(str(art), 9.0) == (9.0, "argument")
        assert resolve_kernel_baseline(str(art)) == (123.5, "committed-artifact")
        # tolerant path falls back on the recorded constant
        value, source = resolve_kernel_baseline(str(tmp_path / "no.json"))
        assert value == KERNEL_BASELINE_PAIRS_PER_SECOND
        assert source == "fallback-constant"
        with pytest.raises(BaselineError):
            resolve_kernel_baseline(str(tmp_path / "no.json"), strict=True)
        with pytest.raises(BaselineError):
            resolve_kernel_baseline(None, strict=True)


class TestBenchDriver:
    """One driver runs every row of the bench table; the stub rows keep
    real paths, thresholds and messages but run no benchmark."""

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        calls = []

        def stub(name):
            def run(**kwargs):
                calls.append((name, kwargs))
                return {"suite": name}

            return run

        for name, row in list(bench_mod.SUITES.items()):
            monkeypatch.setitem(
                bench_mod.SUITES, name,
                dataclasses.replace(row, run=stub(name), format=repr),
            )
        return calls

    @pytest.mark.parametrize(
        "argv, suite, path",
        [
            (["bench"], "hotpaths", "BENCH_hotpaths.json"),
            (["bench", "--kernel"], "kernel", "BENCH_kernel.json"),
            (["bench", "--prefilter"], "prefilter", "BENCH_prefilter.json"),
            (["bench", "--matstore"], "matstore", "BENCH_matstore.json"),
            (["bench-parallel", "--dataset", "ck34-mini"], "parallel",
             "BENCH_parallel.json"),
        ],
        ids=["hotpaths", "kernel", "prefilter", "matstore", "parallel"],
    )
    def test_default_artefact_path(self, calls, tmp_path, capsys, argv,
                                   suite, path):
        assert main(argv) == 0
        assert json.loads((tmp_path / path).read_text()) == {"suite": suite}
        assert f"wrote {path}" in capsys.readouterr().out
        [(ran, kwargs)] = calls
        assert ran == suite
        # every threshold reaches the run, at the row's default
        assert {k: kwargs[k] for k in bench_mod.SUITES[suite].gates} == dict(
            bench_mod.SUITES[suite].gates
        )

    @pytest.mark.parametrize(
        "argv",
        [["bench", "--kernel", "--no-output"],
         ["bench-parallel", "--dataset", "ck34-mini", "--no-output"]],
        ids=["bench", "bench-parallel"],
    )
    def test_no_output_writes_nothing(self, calls, tmp_path, argv):
        assert main(argv) == 0
        assert len(calls) == 1
        assert not list(tmp_path.glob("*.json"))

    def test_failing_gate_exits_with_the_rows_one_line(
        self, calls, monkeypatch, capsys
    ):
        def failure(report):
            return f"stub gate failed: {report['floor']}"

        monkeypatch.setitem(
            bench_mod.SUITES, "matstore",
            dataclasses.replace(
                bench_mod.SUITES["matstore"],
                run=lambda min_speedup, **kw: {"floor": min_speedup},
                failure=failure,
            ),
        )
        with pytest.raises(SystemExit) as err:
            main(["bench", "--matstore", "--check", "--no-output",
                  "--min-speedup", "7"])
        assert str(err.value) == "stub gate failed: 7.0"
        # the report text goes to stderr, not into the exit message
        assert "{'floor': 7.0}" not in str(err.value)

    def test_check_on_the_gateless_suite_fails_at_once(self, calls):
        with pytest.raises(SystemExit, match="no gate"):
            main(["bench", "--check", "--no-output"])
        assert calls == []

    def test_parallel_check_records_the_flags_thresholds(self, tmp_path):
        """The artefact's gates follow --min-speedup/--min-startup-speedup
        and ``passed`` is the decision the exit code reflects."""
        out = tmp_path / "bp.json"
        with pytest.raises(SystemExit) as err:
            main(["bench-parallel", "--dataset", "ck34-mini",
                  "--workers-grid", "1,2", "--check", "--min-speedup", "5",
                  "--min-startup-speedup", "0", "--output", str(out),
                  "--runs-dir", str(tmp_path / "runs")])
        assert err.value.code not in (0, None)
        assert "\n" not in str(err.value)
        assert str(err.value).startswith("parallel regression:")
        report = json.loads(out.read_text())
        assert report["regression"]["min_speedup"] == 5.0
        assert report["regression"]["passed"] is False
        assert report["plane"]["min_rebuild_speedup"] == 0
        assert report["plane"]["passed"] is True

    def test_hotpaths_report_on_a_small_grid(self, tmp_path):
        report = bench_mod.run_bench(slave_counts=(1, 3))
        sweep = report["sweeps"]["ck34"]
        assert [p["n_slaves"] for p in sweep["points"]] == [1, 3]
        for point in sweep["points"]:
            assert point["n_jobs"] == 561
            assert min(point[k] for k in ("wall_seconds", "sim_events",
                       "events_per_second", "sim_seconds")) > 0
        assert sweep["sweep_wall_seconds"] > 0.0
        # a partial grid claims no speedup against the full-grid baseline
        assert "speedup_vs_pre_overhaul" not in sweep
        assert set(bench_mod.PRE_OVERHAUL_SWEEP_WALL_S) == {"ck34", "rs119"}
        assert report["schema"] == "repro-bench-hotpaths/1"
        assert report["mode"] == "model"
        assert set(report["micro"]) == {
            "evaluate_memoized", "noc_transfer", "rcce_rendezvous"}
        assert all(min(m.values()) > 0 for m in report["micro"].values())
        assert "exp2 sweep" in bench_mod.format_bench_report(report)
        out = tmp_path / "BENCH_hotpaths.json"
        bench_mod.write_report(report, str(out))
        assert json.loads(out.read_text()) == report

    def test_parallel_gate_reads_only_farm_points(self):
        """The workers=1 point runs the serial loop: it cannot pass the
        gate for a slower farm, and without a workers>=2 point or a
        second CPU the gate cannot measure."""
        from repro.experiments.bench import farm_speedup_verdict

        points = [{"workers": 1, "speedup_vs_serial": 1.06},
                  {"workers": 2, "speedup_vs_serial": 0.71}]
        assert farm_speedup_verdict(points, 2, 1.0) == (0.71, "fail")
        assert farm_speedup_verdict(points, 2, 0.5) == (0.71, "pass")
        assert farm_speedup_verdict(points, 1, 1.0) == (None, "not-measurable")
        assert farm_speedup_verdict(points[:1], 2, 1.0) == (None, "not-measurable")

    def test_parallel_passed_requires_bit_identity(self, tmp_path,
                                                   monkeypatch):
        import repro.parallel as parallel

        real = parallel.iter_pair_results

        def corrupted(*args, config=None, **kwargs):
            results = real(*args, config=config, **kwargs)
            for k, (i, j, scores, counts) in enumerate(results):
                if k == 0 and config is not None and config.workers > 1:
                    scores = {name: v + 1.0 for name, v in scores.items()}
                yield i, j, scores, counts

        monkeypatch.setattr(parallel, "iter_pair_results", corrupted)
        out = tmp_path / "bp.json"
        with pytest.raises(SystemExit, match="diverged from the serial"):
            main(["bench-parallel", "--dataset", "ck34-mini",
                  "--workers-grid", "1,2", "--check", "--min-speedup", "0",
                  "--min-startup-speedup", "0", "--output", str(out),
                  "--runs-dir", str(tmp_path / "runs")])
        assert json.loads(out.read_text())["regression"]["passed"] is False


class TestServiceCommandsParse:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--queue-limit", "4", "--max-batch", "2",
             "--batch-window", "0.01", "--cache-capacity", "16",
             "--workers", "2", "--retries", "1", "--dataset", "ck34-mini"]
        )
        assert args.port == 0 and args.queue_limit == 4
        assert args.max_batch == 2 and args.batch_window == 0.01
        assert args.cache_capacity == 16 and args.workers == 2
        assert args.retries == 1 and args.fn.__name__ == "_cmd_serve"

    def test_query_ops(self):
        parser = build_parser()
        args = parser.parse_args(["query", "align", "a", "b", "--port", "1234"])
        assert args.op == "align" and args.args == ["a", "b"]
        assert args.port == 1234
        args = parser.parse_args(
            ["query", "search", "q", "--top", "3", "--method", "sse_composition"]
        )
        assert args.op == "search" and args.top == 3
        args = parser.parse_args(["query", "register", "name", "f.pdb", "--corpus"])
        assert args.corpus
        args = parser.parse_args(["query", "submit-matrix", "--dataset", "ck34-mini"])
        assert args.dataset == "ck34-mini"
        with pytest.raises(SystemExit):
            parser.parse_args(["query", "frobnicate"])

    def test_query_operand_count_enforced(self):
        from repro.cli import _cmd_query

        args = build_parser().parse_args(["query", "align", "only-one"])
        with pytest.raises(SystemExit) as err:
            _cmd_query(args)
        assert "usage: query align" in str(err.value)


def test_cli_import_leaves_the_experiment_harnesses_unloaded():
    """Tool commands, the ``serve`` shard above all, do not pay for
    importing every experiment harness and the bench driver."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestPrefilterFlags:
    """search/query/bench prefilter flags parse; bad values fail fast."""

    def test_search_prefilter_parses(self):
        parser = build_parser()
        args = parser.parse_args(
            ["search", "q", "--prefilter", "--prefilter-keep", "0.1"]
        )
        assert args.prefilter and args.prefilter_keep == 0.1
        args = parser.parse_args(["search", "q"])
        assert not args.prefilter and args.prefilter_keep is None

    def test_query_prefilter_parses(self):
        args = build_parser().parse_args(
            ["query", "search", "q", "--prefilter", "--prefilter-keep", "0.5"]
        )
        assert args.prefilter and args.prefilter_keep == 0.5

    def test_bench_prefilter_parses(self):
        args = build_parser().parse_args(
            ["bench", "--prefilter", "--queries", "3",
             "--min-recall", "0.9", "--min-speedup", "1.5"]
        )
        assert args.prefilter and args.queries == 3
        assert args.min_recall == 0.9 and args.min_speedup == 1.5

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "q", "--top", "0"],
            ["search", "q", "--top", "-3"],
            ["search", "q", "--top", "2.5"],
            ["search", "q", "--prefilter-keep", "0"],
            ["search", "q", "--prefilter-keep", "1.5"],
            ["search", "q", "--prefilter-keep", "nope"],
            ["query", "search", "q", "--top", "0"],
            ["query", "search", "q", "--prefilter-keep", "-0.1"],
            ["bench", "--prefilter", "--queries", "0"],
            ["bench", "--prefilter", "--min-recall", "2.0"],
        ],
    )
    def test_bad_values_rejected_at_parse(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        assert "must be" in err or "expected" in err

    def test_bench_kernel_and_prefilter_exclusive(self):
        with pytest.raises(SystemExit, match="^bench: --kernel, --prefilter "
                           "and --matstore are exclusive$"):
            main(["bench", "--kernel", "--prefilter", "--no-output"])


class TestMatstoreCommand:
    def test_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["matstore", "build", "--store", "ms", "--dataset", "ck34",
             "--limit", "6", "--workers", "2", "--retries", "1"]
        )
        assert args.action == "build" and args.limit == 6
        args = parser.parse_args(["matstore", "query", "a", "b"])
        assert args.action == "query" and args.chain_a == "a"
        args = parser.parse_args(["matstore", "export", "--output", "m.csv"])
        assert args.action == "export" and args.output == "m.csv"
        with pytest.raises(SystemExit):
            parser.parse_args(["matstore"])  # an action is required
        with pytest.raises(SystemExit):
            parser.parse_args(["matstore", "compact"])

    def test_build_extend_query_verify_export(self, capsys, tmp_path):
        store = str(tmp_path / "ms")
        assert main(
            ["matstore", "build", "--store", store,
             "--dataset", "ck34-mini", "--limit", "3"]
        ) == 0
        assert "3 chains, 3 pairs committed (3 computed now" in capsys.readouterr().out
        assert main(
            ["matstore", "extend", "--store", store,
             "--dataset", "ck34-mini", "--limit", "4"]
        ) == 0
        assert "4 chains, 6 pairs committed (3 computed now" in capsys.readouterr().out
        from repro.datasets import load_dataset

        ds = load_dataset("ck34-mini")
        assert main(
            ["matstore", "query", "--store", store, ds[0].name, ds[3].name]
        ) == 0
        out = capsys.readouterr().out
        assert "tm_norm_b" in out and "lddt" in out and "gdt_ts" in out
        assert main(["matstore", "verify", "--store", store]) == 0
        assert "6 pairs cross-checked" in capsys.readouterr().out
        csv_path = str(tmp_path / "ms.csv")
        assert main(
            ["matstore", "export", "--store", store, "--output", csv_path]
        ) == 0
        assert "exported 6 pair rows" in capsys.readouterr().out

    def test_query_of_unknown_chain_is_one_line_error(self, capsys, tmp_path):
        store = str(tmp_path / "ms")
        assert main(
            ["matstore", "build", "--store", store,
             "--dataset", "ck34-mini", "--limit", "3"]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="not in the store"):
            main(["matstore", "query", "--store", store, "nope", "alsonope"])

    def test_missing_store_is_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit, match="matstore error"):
            main(["matstore", "verify", "--store", str(tmp_path / "absent")])

    def test_corrupt_journal_is_one_line_error(self, capsys, tmp_path):
        store = tmp_path / "ms"
        assert main(
            ["matstore", "build", "--store", str(store),
             "--dataset", "ck34-mini", "--limit", "3"]
        ) == 0
        capsys.readouterr()
        journal = store / "journal.csv"
        lines = journal.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace(lines[0][5], "#", 1)
        journal.write_text("".join(lines))
        with pytest.raises(SystemExit, match="corrupt journal"):
            main(["matstore", "verify", "--store", str(store)])

    def test_bench_matstore_flag_is_exclusive(self):
        args = build_parser().parse_args(["bench", "--matstore", "--check"])
        assert args.matstore and args.check
        with pytest.raises(SystemExit, match="exclusive"):
            main(["bench", "--matstore", "--kernel"])

    def test_serve_and_query_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--matstore-dir", "ms"])
        assert args.matstore_dir == "ms"
        args = parser.parse_args(["query", "matstore-lookup", "a", "b"])
        assert args.op == "matstore-lookup" and args.args == ["a", "b"]
        args = parser.parse_args(["query", "status"])
        assert args.op == "status" and args.args == []
