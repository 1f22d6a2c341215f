"""Retry/backoff policy for the process-pool farm.

One small value object shared by the master-side scheduler: how many
times a failed or stalled chunk may be re-dispatched, how long to back
off between attempts (exponential with a cap), and how long a chunk may
run before the master treats it as stalled and dispatches a duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BACKOFF_FACTOR", "MAX_BACKOFF_SECONDS", "RetryPolicy"]

#: growth of the backoff delay per failed attempt
BACKOFF_FACTOR = 2.0

#: ceiling on one backoff delay, however many attempts have failed
MAX_BACKOFF_SECONDS = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the farm's failure-absorption machinery.

    ``max_retries`` bounds re-dispatches per chunk *and* pool restarts
    after an abrupt worker death.  ``chunk_timeout_seconds = 0`` disables
    stall detection (chunks may run forever).
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    chunk_timeout_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be non-negative")
        if self.chunk_timeout_seconds < 0:
            raise ValueError("chunk_timeout_seconds must be non-negative")

    def backoff(self, attempt: int) -> float:
        """Backoff before re-dispatching after failed attempt ``attempt``."""
        return min(
            MAX_BACKOFF_SECONDS,
            self.backoff_seconds * BACKOFF_FACTOR ** max(0, attempt),
        )
