"""Shared utilities: RNG plumbing, imaging, clocks, tables."""

from repro.utils.clock import MONOTONIC, Clock, FakeClock, MonotonicClock
from repro.utils.rng import RngLike, as_generator, derive, spawn
from repro.utils.tables import render_matrix, render_table

__all__ = [
    "RngLike",
    "as_generator",
    "derive",
    "spawn",
    "Clock",
    "MonotonicClock",
    "FakeClock",
    "MONOTONIC",
    "render_matrix",
    "render_table",
]
