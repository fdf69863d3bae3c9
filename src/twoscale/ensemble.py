"""Interacting ensembles and law-level distances.

An ensemble is M member fields advancing on a shared clock; its empirical
measure feeds the distribution-dependent drift, which
``integrator.BatchedStepper.explicit_terms`` evaluates on the whole stack.
Law-level comparisons use the 1-D quadratic Wasserstein distance between
scalar observable samples (sorted-quantile coupling, the exact optimal
coupling on the line), and the propagation-of-chaos gap compares a small
ensemble against a large one through quantile-matched subsampling. The
caller evaluates the observable on each member (an H norm, say);
``ObservableSamples`` tags and freezes the values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CountMismatch
from .grid import GridSpec, ScalarField
from .noise import NoiseStream, QWienerSpec

__all__ = [
    "Ensemble",
    "ObservableSamples",
    "wasserstein2_1d",
    "chaos_gap",
]


@dataclass
class Ensemble:
    """M member fields on a shared clock with their noise streams.

    Unless ``streams`` are given, member i owns the stream
    ``NoiseStream.derive(noise, i, 0)``.
    """

    members: list[ScalarField]
    noise: QWienerSpec
    time: float = 0.0
    streams: list[NoiseStream] = field(default_factory=list)

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        g = self.members[0].grid
        for m in self.members[1:]:
            if m.grid != g:
                raise ValueError("members live on different grids")
        if not self.streams:
            self.streams = [NoiseStream.derive(self.noise, i, 0)
                            for i in range(len(self.members))]
        if len(self.streams) != len(self.members):
            raise ValueError("one stream per member required")

    @property
    def grid(self) -> GridSpec:
        return self.members[0].grid

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ObservableSamples:
    """Scalar observable values across an ensemble, tagged by kind.

    kind is "H_norm", the one observable the chaos gap compares.
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind != "H_norm":
            raise ValueError(f"unknown observable kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("observable samples must be a flat vector")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def wasserstein2_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Quadratic Wasserstein distance of two equal-size scalar samples.

    Sorting both samples realizes the optimal monotone coupling on the
    line, so the distance is sqrt(mean((sort a - sort b)^2)). Raises
    :class:`CountMismatch` for unequal sizes.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size != b.size:
        raise CountMismatch(
            f"sample sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise CountMismatch("empty samples")
    sa = np.sort(a)
    sb = np.sort(b)
    return float(np.sqrt(np.mean((sa - sb) ** 2)))


def quantile_subsample(values: np.ndarray, size: int) -> np.ndarray:
    """Quantile-matched subsample: sorted values at (i + 1/2)/size quantiles."""
    values = np.sort(np.asarray(values, dtype=float).reshape(-1))
    if size < 1 or size > values.size:
        raise CountMismatch(
            f"cannot subsample {values.size} values to {size}")
    q = (np.arange(size) + 0.5) / size
    idx = np.minimum((q * values.size).astype(int), values.size - 1)
    return values[idx]


def chaos_gap(small: ObservableSamples, large: ObservableSamples) -> float:
    """Wasserstein-2 gap between a small and a large ensemble's observable.

    The large sample is reduced to the small size by quantile matching
    before the sorted coupling, so the comparison is between laws rather
    than raw vectors. Identical ensembles give exactly zero.
    """
    ms = small.values.size
    if ms > large.values.size:
        raise CountMismatch(
            f"small ensemble ({ms}) larger than large ({large.values.size})")
    reduced = quantile_subsample(large.values, ms)
    return wasserstein2_1d(small.values, reduced)
