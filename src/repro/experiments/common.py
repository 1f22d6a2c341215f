"""Shared plumbing for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.datasets.registry import Dataset
from repro.psc.evaluator import EvalMode, JobEvaluator

__all__ = [
    "SLAVE_GRID_FULL",
    "SLAVE_GRID_QUICK",
    "render_table",
    "ascii_plot",
    "ExperimentResult",
    "shared_evaluator",
]

# The paper varies active slaves over the odd counts 1..47.
SLAVE_GRID_FULL: tuple[int, ...] = tuple(range(1, 48, 2))
SLAVE_GRID_QUICK: tuple[int, ...] = (1, 3, 11, 23, 47)


# Process-wide evaluator pool, keyed by (dataset identity, eval mode).
# One JobEvaluator per dataset+mode means every experiment harness — and
# repeated harness invocations, e.g. `cli all` running exp1 then exp2 on
# the same dataset — share one memoized per-pair cost cache instead of
# re-estimating ~170k pair costs per sweep.  The evaluator holds a strong
# reference to its dataset, so the id() key stays valid while pooled.
_EVALUATOR_POOL: Dict[Tuple[int, str], JobEvaluator] = {}


def shared_evaluator(dataset: Dataset, mode: EvalMode | str = EvalMode.MODEL) -> JobEvaluator:
    """Return the pooled default-method evaluator for ``(dataset, mode)``."""
    key = (id(dataset), EvalMode(mode).value)
    evaluator = _EVALUATOR_POOL.get(key)
    if evaluator is None:
        evaluator = JobEvaluator(dataset, mode=mode)
        _EVALUATOR_POOL[key] = evaluator
    return evaluator


@dataclass
class ExperimentResult:
    """Rows + metadata of one regenerated table/figure."""

    exp_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[tuple]
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def to_text(self) -> str:
        body = render_table(self.columns, self.rows)
        head = f"== {self.exp_id}: {self.title} =="
        parts = [head, body]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self, path=None) -> str:
        """Render (and optionally write) the rows as CSV."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="", encoding="ascii") as fh:
                fh.write(text)
        return text


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def render_table(columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[k]) for r in cells)) if cells else len(str(col))
        for k, col in enumerate(columns)
    ]
    def line(items: Sequence[str]) -> str:
        return "  ".join(str(s).rjust(w) for s, w in zip(items, widths))

    out = [line(columns), line(["-" * w for w in widths])]
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def ascii_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 64,
    height: int = 18,
    logy: bool = False,
    title: str = "",
) -> str:
    """Plot (x, y) series as ASCII art — the "figure" of a terminal repo."""
    import math

    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if logy:
        if min(ys) <= 0:
            raise ValueError("log-scale plot needs positive y values")
        ys = [math.log10(y) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@"
    for si, (name, pts) in enumerate(series.items()):
        mark = marks[si % len(marks)]
        for x, y in pts:
            yy = math.log10(y) if logy else y
            col = int((x - x0) / xr * (width - 1))
            row = int((yy - y0) / yr * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = []
    if title:
        lines.append(title)
    top = f"{(10 ** y1 if logy else y1):.6g}"
    bot = f"{(10 ** y0 if logy else y0):.6g}"
    lines.append(f"y max = {top}" + ("  (log scale)" if logy else ""))
    lines.extend("|" + "".join(r) + "|" for r in grid)
    lines.append(f"y min = {bot};  x: {x0:g} .. {x1:g}")
    legend = "  ".join(
        f"{marks[i % len(marks)]}={name}" for i, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)
