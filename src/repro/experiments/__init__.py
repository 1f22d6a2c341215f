"""Experiment harnesses: one per table/figure of the paper.

==========  =========================================================
exp id      regenerates
==========  =========================================================
``table1``  Table I   — SCC feature summary (configuration check)
``exp1``    Table II + Figure 5 — rckAlign vs distributed TM-align
``table3``  Table III — serial baselines on both CPUs/datasets
``exp2``    Table IV + Figure 6 — rckAlign speedup vs slave count
``table5``  Table V   — cross-system summary
``ablations`` A1 (balancing), A2 (hierarchical masters), A3 (MC-PSC)
``exp_resilience`` Experiment R — degraded-mode scaling under
            injected slave failures (beyond the paper)
==========  =========================================================

Every harness returns structured rows and renders the same table the
paper prints; ``python -m repro.cli <exp>`` drives them.
"""

from repro.experiments.bench import run_bench
from repro.experiments.common import (
    SLAVE_GRID_FULL,
    SLAVE_GRID_QUICK,
    render_table,
    shared_evaluator,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table3 import run_table3
from repro.experiments.exp1 import run_exp1
from repro.experiments.exp2 import run_exp2
from repro.experiments.table5 import run_table5
from repro.experiments.resilience import run_exp_resilience
from repro.experiments.ablations import (
    run_ablation_balancing,
    run_ablation_hierarchy,
    run_ablation_mcpsc,
)

__all__ = [
    "SLAVE_GRID_FULL",
    "SLAVE_GRID_QUICK",
    "render_table",
    "shared_evaluator",
    "run_bench",
    "run_table1",
    "run_table3",
    "run_exp1",
    "run_exp2",
    "run_exp_resilience",
    "run_table5",
    "run_ablation_balancing",
    "run_ablation_hierarchy",
    "run_ablation_mcpsc",
]
