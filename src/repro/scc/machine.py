"""The simulated SCC machine: cores, programs, statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Optional

from repro.cost.counters import CostCounter
from repro.noc.fabric import NocFabric
from repro.scc.config import SccConfig
from repro.sim.engine import Environment, Process

__all__ = ["SccMachine", "Core", "CoreStats"]


@dataclass
class CoreStats:
    """Per-core accounting of where simulated time went."""

    compute_s: float = 0.0
    comm_s: float = 0.0
    jobs_done: int = 0


class Core:
    """One SCC core: an execution context for simulation coroutines.

    Programs call ``yield from core.compute_cycles(...)`` /
    ``compute_counts(...)`` for processing time and use the machine's
    :class:`~repro.scc.rcce.Rcce` instance for communication.
    """

    def __init__(self, machine: "SccMachine", core_id: int) -> None:
        self.machine = machine
        self.id = core_id
        self.tile = machine.config.tile_of_core(core_id)
        self.cpu = machine.config.core_cpu
        self.stats = CoreStats()
        #: effective-frequency multiplier; fault injection sets this below
        #: 1.0 to model a thermally/voltage-degraded ("slow") core
        self.freq_scale = 1.0

    def __repr__(self) -> str:
        return f"Core(rck{self.id:02d}, tile {self.tile})"

    @property
    def env(self) -> Environment:
        return self.machine.env

    def compute_cycles(self, cycles: float) -> Generator:
        """Coroutine: burn ``cycles`` of core time."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        if self.freq_scale <= 0:
            raise ValueError("freq_scale must be positive")
        dt = cycles / (self.cpu.freq_hz * self.freq_scale)
        self.stats.compute_s += dt
        yield self.env.timeout(dt)

    def compute_counts(self, counts: CostCounter | Mapping[str, float]) -> Generator:
        """Coroutine: burn the time the core's CPU model prices for
        the given op counts."""
        yield from self.compute_cycles(self.cpu.cycles(counts))

    def compute_seconds(self, seconds: float) -> Generator:
        """Coroutine: burn wall-clock seconds (already CPU-priced)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.stats.compute_s += seconds
        yield self.env.timeout(seconds)

    def dram_read(self, nbytes: int) -> Generator:
        """Coroutine: read from off-chip memory via the nearest iMC."""
        t0 = self.env.now
        yield from self.machine.fabric.dram_read(self.tile, nbytes)
        self.stats.comm_s += self.env.now - t0
        self.machine.record_comm(self.id, t0, self.env.now)


class SccMachine:
    """The whole simulated chip; owns the fabric and the cores."""

    def __init__(
        self, env: Optional[Environment] = None, config: Optional[SccConfig] = None
    ) -> None:
        self.env = env or Environment()
        self.config = config or SccConfig()
        self.fabric = NocFabric(self.env, self.config.noc)
        self.cores = [Core(self, i) for i in range(self.config.n_cores)]
        self._processes: list[Process] = []
        #: optional ``(core_id, start, end, kind)`` callback; installed by
        #: :class:`repro.scc.trace.Tracer` to record comm intervals
        self.trace_hook: Optional[Callable[[int, float, float, str], None]] = None

    def record_comm(self, core_id: int, start: float, end: float) -> None:
        """Report a communication interval to the tracer, if attached."""
        if self.trace_hook is not None and end > start:
            self.trace_hook(core_id, start, end, "comm")

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def spawn(
        self,
        core_id: int,
        program: Callable[..., Generator],
        *args: Any,
        name: str = "",
    ) -> Process:
        """Start ``program(core, *args)`` on a core.

        ``program`` must be a generator function whose first parameter is
        the :class:`Core`.
        """
        core = self.cores[core_id]
        proc = self.env.process(
            program(core, *args), name=name or f"rck{core_id:02d}:{program.__name__}"
        )
        self._processes.append(proc)
        return proc

    def run(self, until=None) -> Any:
        """Advance the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until)

    @property
    def now(self) -> float:
        return self.env.now
