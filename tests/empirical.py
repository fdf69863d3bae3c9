"""Empirical law of a list of member fields, the reference the tests use.

The stepping engine computes each replica's mean inside
``BatchedStepper.explicit_terms``; these helpers state the same law one
member at a time, for the single-path reference step and the drag tests.
"""
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from twoscale.ensemble import Ensemble
from twoscale.grid import ScalarField, norm_H


@dataclass
class EmpiricalMeasure:
    """Empirical law of an ensemble: mean field plus scalar second moment.

    ``second_moment`` is the ensemble average of ||u||_H^2, the only
    measure functional the drift bounds consume. ``members`` may carry the
    raw sample for diagnostics; when present it must be consistent with the
    summary (same count, same mean).
    """

    mean: ScalarField
    second_moment: float
    count: int
    members: Sequence[ScalarField] | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("measure needs at least one member")
        if self.members is not None:
            if len(self.members) != self.count:
                raise ValueError("member list inconsistent with count")
            acc = np.zeros(self.mean.grid.shape)
            sq = 0.0
            for m in self.members:  # fixed index order, reproducible
                acc = acc + m.values
                sq += norm_H(m) ** 2
            acc /= self.count
            sq /= self.count
            scale = max(1.0, float(np.max(np.abs(acc))))
            if np.max(np.abs(acc - self.mean.values)) > 1e-12 * scale \
                    or abs(sq - self.second_moment) > 1e-12 * max(1.0, sq):
                raise ValueError("summary inconsistent with member list")


def empirical_measure(ensemble: Ensemble | list[ScalarField]) -> EmpiricalMeasure:
    """Empirical law summary with deterministic index-ordered reductions."""
    members = ensemble.members if isinstance(ensemble, Ensemble) else ensemble
    if not members:
        raise ValueError("empty member list")
    grid = members[0].grid
    acc = np.zeros(grid.shape)
    second = 0.0
    for m in members:  # fixed order: summation is bitwise reproducible
        acc = acc + m.values
        second += norm_H(m) ** 2
    count = len(members)
    mean = ScalarField(grid, acc / count)
    return EmpiricalMeasure(mean=mean, second_moment=second / count,
                            count=count)
