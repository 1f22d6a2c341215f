"""Discrete-event simulation kernel.

A minimal, deterministic, simpy-like engine used to simulate the SCC
many-core processor and its network-on-chip.  Simulation *processes* are
Python generator functions that yield :class:`Event` objects (timeouts,
resource requests, store gets, other processes).  The kernel advances a
global clock and resumes processes when the events they wait on fire.

Determinism: events scheduled for the same simulated time fire in FIFO
order of scheduling (ties broken by a monotonically increasing sequence
number), so a given program produces bit-identical traces across runs.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Process,
    Interrupt,
    SimulationError,
    AllOf,
    AnyOf,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Interrupt",
    "SimulationError",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
]
