"""Hot-path harness benchmarks: the ``bench`` subcommand's machinery.

These exercise ``run_bench`` itself on a small grid (the committed
``BENCH_hotpaths.json`` is regenerated with the full grid via
``python -m repro.cli bench``) and pin the report schema so downstream
tooling can rely on it.
"""

from repro.experiments.bench import (
    PRE_OVERHAUL_SWEEP_WALL_S,
    format_bench_report,
    run_bench,
    write_report,
)


def test_bench_hotpaths_quick_sweep(benchmark):
    report = benchmark.pedantic(
        run_bench,
        kwargs={"slave_counts": (1, 3, 11), "micro": False},
        rounds=3,
        iterations=1,
    )
    sweep = report["sweeps"]["ck34"]
    assert [p["n_slaves"] for p in sweep["points"]] == [1, 3, 11]
    for point in sweep["points"]:
        assert point["n_jobs"] == 561
        assert point["wall_seconds"] > 0.0
        assert point["sim_events"] > 0
        assert point["events_per_second"] > 0.0
        assert point["sim_seconds"] > 0.0
    assert sweep["sweep_wall_seconds"] > 0.0
    # partial grid: no speedup claim against the full-grid baseline
    assert "speedup_vs_pre_overhaul" not in sweep
    assert report["schema"] == "repro-bench-hotpaths/1"
    assert report["mode"] == "model"
    text = format_bench_report(report)
    assert "exp2 sweep" in text


def test_bench_hotpaths_micro(benchmark):
    report = benchmark.pedantic(
        run_bench,
        kwargs={"slave_counts": (1,), "micro": True},
        rounds=1,
        iterations=1,
    )
    micro = report["micro"]
    assert set(micro) == {"evaluate_memoized", "noc_transfer", "rcce_rendezvous"}
    assert micro["evaluate_memoized"]["calls_per_second"] > 0.0
    assert micro["noc_transfer"]["messages_per_second"] > 0.0
    assert micro["rcce_rendezvous"]["messages_per_second"] > 0.0


def test_bench_hotpaths_json_artifact(benchmark, tmp_path):
    out = tmp_path / "BENCH_hotpaths.json"
    write_report(
        benchmark.pedantic(
            run_bench,
            kwargs={"slave_counts": (1, 3), "micro": False},
            rounds=1,
            iterations=1,
        ),
        str(out),
    )
    import json

    report = json.loads(out.read_text())
    assert report["slave_counts"] == [1, 3]
    assert report["sweeps"]["ck34"]["points"][0]["n_slaves"] == 1
    # the committed artefact's baseline table covers both paper datasets
    assert set(PRE_OVERHAUL_SWEEP_WALL_S) == {"ck34", "rs119"}
