"""Discrete-event simulation substrate: kernel, RNG streams, statistics."""

from repro.sim.kernel import DeadlockError, SimulationError, Simulator
from repro.sim.rng import LatencyPerturber, RandomStreams
from repro.sim.stats import CpuStats, SimStats

__all__ = [
    "Simulator", "SimulationError", "DeadlockError",
    "RandomStreams", "LatencyPerturber",
    "SimStats", "CpuStats",
]
