"""In-process service metrics: counters, gauges, latency histograms.

Everything is plain dict/float state updated from the event loop (no
locks needed: the asyncio server mutates metrics only between awaits),
snapshotted into the JSON the ``metrics`` op returns.  Histograms use
fixed logarithmic millisecond buckets so the snapshot is stable and
diffable across runs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict

__all__ = ["LatencyHistogram", "ServiceMetrics"]


#: histogram bucket upper bounds, milliseconds
BUCKET_BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000)


class LatencyHistogram:
    """Fixed-bucket latency histogram (milliseconds)."""

    def __init__(self) -> None:
        self.bucket_counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1e3
        self.count += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)
        for idx, bound in enumerate(BUCKET_BOUNDS_MS):
            if ms <= bound:
                self.bucket_counts[idx] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> Dict[str, object]:
        buckets = {
            f"le_{bound}ms": n
            for bound, n in zip(BUCKET_BOUNDS_MS, self.bucket_counts)
        }
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum_ms": round(self.sum_ms, 3),
            "mean_ms": round(self.sum_ms / self.count, 3) if self.count else 0.0,
            "max_ms": round(self.max_ms, 3),
            "buckets": buckets,
        }


class ServiceMetrics:
    """Counters + gauges + per-op latency histograms."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self.counters: Dict[str, int] = defaultdict(int)
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, LatencyHistogram] = defaultdict(LatencyHistogram)

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        self.histograms[name].observe(seconds)

    @property
    def uptime_seconds(self) -> float:
        return time.time() - self.started_at

    def snapshot(self) -> Dict[str, object]:
        return {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "latency": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
        }
