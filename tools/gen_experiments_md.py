"""Regenerate EXPERIMENTS.md's header, Tables I-V, A1-A7 and footer in place
from the full slave grid (~2 min): ``PYTHONPATH=src python
tools/gen_experiments_md.py`` from the repository root.  A section runs
from a heading line (or the ``---`` footer rule) to the next; every
section it does not generate is kept byte for byte.
"""
import io, os, time

PATH = "EXPERIMENTS.md"


def split_sections(text):
    """``[first line, text]`` of each section of ``text``, in order."""
    parts = []
    for line in text.splitlines(keepends=True):
        if not parts or line.startswith("#") or line == "---\n":
            parts.append([line, ""])
        parts[-1][1] += line
    return parts


def splice(old, generated):
    """``old`` with each section that ``generated`` also has replaced by
    the generated one, and every other section kept as it is."""
    new = dict(split_sections(generated))
    kept = split_sections(old)
    missing = new.keys() - {key for key, _ in kept}
    if missing:
        raise ValueError(f"no section to replace for {sorted(missing)}")
    return "".join(new.get(key, body) for key, body in kept)


def generate():
    """The generated sections, as one Markdown text."""
    from repro.experiments.exp1 import run_exp1
    from repro.experiments.exp2 import run_exp2
    from repro.experiments.table3 import run_table3
    from repro.experiments.table5 import run_table5
    from repro.experiments.ablations import (
        run_ablation_balancing, run_ablation_hierarchy, run_ablation_mcpsc,
        run_ablation_frequency, run_ablation_memory, run_ablation_energy,
        run_ablation_inits)

    out = io.StringIO()
    w = out.write
    t_start = time.time()

    def table(columns, rows, fmt):
        w("| " + " | ".join(columns) + " |\n|" + "---|" * len(columns) + "\n")
        for row in rows:
            w(fmt.format(*row))

    w("""# EXPERIMENTS — paper vs. measured

All numbers regenerated with `python -m repro.cli all` (model mode, full
24-point slave grid) on the bundled synthetic datasets.  "Paper" columns
are transcribed from the original tables.  Simulated seconds are
deterministic; regenerating this file reproduces it exactly.

**How to read the comparison.**  Table III is matched by construction
(the CPU cycle scales are calibrated against it).  Everything else —
the scaling curves of Tables II/IV, Figures 5/6, and Table V's headline
speedups — is *emergent* from the discrete-event simulation and shows
how closely the modelled mechanisms (master service cost, slave boot
ramp, NoC transfer costs, per-job NFS/spawn overheads, load imbalance)
reproduce the measured hardware behaviour.

""")

    # Table I
    w("## Table I — SCC features\n\n")
    w("Configuration, not measurement: the simulated chip is a 6x4 router mesh,\n")
    w("2 P54C cores/tile (48 cores), 16 KB MPB per tile, 4 iMCs — matching the\n")
    w("paper's Table I (asserted in tests/test_scc_machine.py).\n\n")

    # Table III
    w("## Table III — serial baselines\n\n")
    r3 = run_table3()
    table(("processor", "CK34 (s)", "paper", "RS119 (s)", "paper"), r3.rows, "| {0} | {1:.0f} | {2:.0f} | {3:.0f} | {4:.0f} |\n")
    w("\nMatched by construction (two-parameter per-CPU calibration; see\n`repro.cost.calibration`).  Residual error < 0.1%.\n\n")

    # Exp 1 / Table II + Fig 5
    w("## Table II + Figure 5 — Experiment I (CK34): rckAlign vs distributed TM-align\n\n")
    r1 = run_exp1(dataset="ck34")
    table(("slaves", "rckAlign (s)", "paper", "TM-align dist. (s)", "paper"), r1.rows, "| {0} | {1:.0f} | {2:.0f} | {3:.0f} | {4:.0f} |\n")
    rck47, dist47 = r1.rows[-1][1], r1.rows[-1][3]
    w(f"""
Shape reproduction: rckAlign wins at **every** core count; at 47 slaves
the advantage factor is {dist47/rck47:.2f}x (paper: 120/56 = 2.14x), and at 1
slave {r1.rows[0][3]/r1.rows[0][1]:.2f}x (paper: 5212/2027 = 2.57x).  The paper's
measured distributed column is noisy and super-linear between 3 and 9
cores (e.g. 854 s at 5 cores < 5212/5); our model scales ~linearly
there, so mid-curve distributed times sit 10-25% above the paper's.
The two causes the paper identifies — NFS disk contention and per-job
process-environment cost — are both modelled and visible: throttling
NFS bandwidth collapses the distributed scaling (tests/test_baselines).

""")
    w("```\n" + r1.notes + "\n```\n\n")

    # Exp 2 / Table IV + Fig 6
    w("## Table IV + Figure 6 — Experiment II: rckAlign speedup vs slave count\n\n")
    r2 = run_exp2(datasets=("ck34", "rs119"))
    table(("slaves", "CK34 speedup", "paper", "CK34 (s)", "RS119 speedup", "paper", "RS119 (s)"), r2.rows, "| {0} | {1:.2f} | {2:.2f} | {3:.0f} | {4:.2f} | {5:.2f} | {6:.0f} |\n")
    errs_ck = [abs(row[1]-row[2])/row[2] for row in r2.rows]
    errs_rs = [abs(row[4]-row[5])/row[5] for row in r2.rows]
    w(f"""
Near-linear speedup emerges from the simulation, and the paper's key
second-order observation — *"the larger the dataset the higher the
speedup"* — reproduces: at 47 slaves RS119 reaches {r2.rows[-1][4]:.1f}x vs CK34's
{r2.rows[-1][1]:.1f}x (paper: 44.78x vs 36.17x).  Median |speedup error| vs the
paper across the full grid: CK34 {100*sorted(errs_ck)[len(errs_ck)//2]:.1f}%, RS119 {100*sorted(errs_rs)[len(errs_rs)//2]:.1f}%; max
CK34 {100*max(errs_ck):.1f}%, RS119 {100*max(errs_rs):.1f}%.  The sub-linearity at high core
counts comes from the same mechanisms the paper discusses: the single
master's per-job service cost (its §V bottleneck warning) plus the
serialized per-slave application launch.

""")
    w("```\n" + r2.notes + "\n```\n\n")

    # Table V
    w("## Table V — summary comparison\n\n")
    r5 = run_table5()
    table(("dataset", "AMD (s)", "P54C (s)", "rckAlign 47 (s)", "speedup vs AMD", "paper", "speedup vs P54C", "paper"), r5.rows, "| {0} | {1:.0f} | {2:.0f} | {3:.0f} | {4:.1f} | {6:.1f} | {5:.1f} | {7:.1f} |\n")
    w("""
The headline claims hold: ~11x over the 2.4 GHz AMD and ~44x over a
single P54C on RS119 (paper: 11.4x / 44.7x), with the speedup larger on
the larger dataset.

""")

    # Ablations
    w("## Ablations (beyond the paper's tables)\n\n")
    a1 = run_ablation_balancing(dataset="ck34", n_slaves=47)
    w("### A1 — load balancing (the paper used none)\n\n")
    table(("strategy", "time (s)", "efficiency", "vs best"), a1.rows, "| {0} | {1:.1f} | {2:.2f} | {3:.3f} |\n")
    w("\nOrdering helps only marginally at CK34 scale: the greedy farm already\nabsorbs most imbalance; the paper's 'no load balancing' choice costs ~3%.\n\n")
    a2 = run_ablation_hierarchy(dataset="ck34", n_workers=47)
    w("### A2 — hierarchical masters (paper SV suggestion)\n\n")
    table(("configuration", "compute slaves", "time (s)", "speedup vs flat"), a2.rows, "| {0} | {1} | {2:.1f} | {3:.2f} |\n")
    w("\nWith the calibrated master cost, 2 sub-masters recover ~5-10% at 47\nworkers; gains grow when the master service cost rises (tests/test_hierarchy).\n\n")
    a3 = run_ablation_mcpsc(dataset="ck34-mini", n_slaves=12)
    w("### A3 — MC-PSC core partitioning (paper SV future work)\n\n")
    table(("partitioning", "cores per method", "time (s)", "vs best"), a3.rows, "| {0} | {1} | {2:.1f} | {3:.2f} |\n")
    w("\nWork-proportional partitioning is ~2x faster than equal shares when\nmethod complexities differ by orders of magnitude.\n\n")
    a4 = run_ablation_frequency(dataset="ck34", n_slaves=47)
    w("### A4 — core-frequency scaling (paper SV: faster cores)\n\n")
    table(("clock", "serial (s)", "rckAlign (s)", "speedup", "efficiency"), a4.rows, "| {0} | {1:.0f} | {2:.1f} | {3:.1f} | {4:.2f} |\n")
    w("\nFixed startup and communication costs eat the gains of faster cores —\nthe paper's warning that 'the single master strategy would become the\nbottleneck, if slave processes were running on faster cores'.\n\n")
    a5 = run_ablation_memory(dataset="ck34", n_slaves=16)
    w("### A5 — memory-constrained streaming master (paper SVI future work)\n\n")
    table(("resident structures", "pair order", "time (s)", "faults"), a5.rows, "| {0} | {1} | {2:.1f} | {3} |\n")
    w("\nBlocked pair tiling keeps refetches near the streaming lower bound;\non-chip refetch bandwidth makes even tight limits nearly free.\n\n")
    a6 = run_ablation_energy(dataset="ck34")
    w("### A6 — energy vs slave count (SCC power envelope 25-125 W)\n\n")
    table(("slaves", "time (s)", "energy (kJ)", "avg W", "EDP (kJ*s)"), a6.rows, "| {0} | {1:.0f} | {2:.2f} | {3:.1f} | {4:.0f} |\n")
    w("\nMore slaves reduce both makespan and total energy (the uncore and idle\ncores dominate), and the full chip beats the 65 W desktop CPU on energy\nfor the same task.\n\n")
    a7 = run_ablation_inits(dataset="ck34", n_pairs=12)
    w("### A7 — TM-align initial-alignment ablation (measured pairs)\n\n")
    table(("variant", "mean TM", "dTM vs full", "relative cost"), a7.rows, "| {0} | {1:.4f} | {2:+.4f} | {3:.2f} |\n")
    w("\nEach initial-alignment kind protects a different class of hard pairs;\nthe full set is never worse and costs ~10% more than threading alone.\n\n")

    w(f"---\nRegenerated in {time.time()-t_start:.0f} s wall clock.  Commands:\n\n")
    w("""```
python -m repro.cli table1
python -m repro.cli table3
python -m repro.cli exp1  --dataset ck34
python -m repro.cli exp2  --dataset both
python -m repro.cli table5
python -m repro.cli ablations
python -m repro.cli exp-resilience
python -m repro.cli bench-parallel
```

Each table and ablation above has one tier-1 check in
`tests/test_experiments.py` or `tests/test_extensions.py`.
""")

    return out.getvalue()


def main():
    generated = generate()
    old = open(PATH).read() if os.path.exists(PATH) else generated
    text = splice(old, generated)
    open(PATH, "w").write(text)
    print(PATH, "written,", len(text), "chars")


if __name__ == "__main__":
    main()
