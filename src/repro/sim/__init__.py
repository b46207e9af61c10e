"""Discrete-event simulation (DES) kernel.

The kernel is deliberately small: a time-ordered event heap
(:mod:`repro.sim.events`), a simulator clock and run loop
(:mod:`repro.sim.kernel`), counted resources (:mod:`repro.sim.resources`)
and seeded RNG helpers (:mod:`repro.sim.rng`). What happened during a run
is recorded by the flight recorder (:mod:`repro.obs.events`), on the
simulated clock and the live executors alike.

The SRE's simulated executor (:mod:`repro.sre.executor_sim`) is built on this
kernel; everything above it (tasks, speculation, Huffman) is agnostic to
whether time is simulated or wall-clock.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource, ResourceRequest
from repro.sim.rng import make_rng, spawn_rngs

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Resource",
    "ResourceRequest",
    "make_rng",
    "spawn_rngs",
]
