"""Trace-class cylindrical noise on the Dirichlet sine basis.

The driving process is W(t) = sum_k sqrt(lambda_k) e_k W_k(t) with
lambda_k = lambda0 * k^(-gamma), gamma > 1, and e_k the H-orthonormal
Dirichlet sine modes of the grid (in 2D the modes are enumerated by
increasing |k|^2, ties broken lexicographically). Increments over dt are

    dW = sum_k sqrt(lambda_k * dt) * xi_k * e_k,    xi_k iid N(0, 1),

so E ||dW||_H^2 = (sum_k lambda_k) * dt exactly.

Randomness is counter-addressed: a stream is (key, counter) where the key
is derived from the master seed and two stream indices, and the counter
advances by the number of modes per draw. A simulate member i draws from
indices (i, 0); a ladder path, member m of replica r, from (m, r) on every
level. Identical (key, counter) pairs reproduce draws bitwise on any
platform, which is what makes synchronous coupling across resolution levels
and byte-identical reruns possible.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from .errors import ValidationError
from .grid import GridSpec, ScalarField

__all__ = [
    "QWienerSpec",
    "NoiseStream",
    "default_mode_count",
    "partial_trace",
    "trace_tail_bound",
    "sample_increment",
    "mode_synthesis",
]

_MASK64 = (1 << 64) - 1


def default_mode_count(grid: GridSpec) -> int:
    """Default spectral truncation: min(n - 1, 64)."""
    return min(grid.cells - 1, 64)


def _mode_indices(grid: GridSpec, count: int) -> np.ndarray:
    """First ``count`` sine modes ordered by |k|^2 then lexicographically.

    In 2D no mode with a wavenumber above ``count`` is among them: the
    ``count`` modes (1, 1)..(1, count) all have a smaller |k|^2. So only
    wavenumbers up to min(n - 1, count) are sorted.
    """
    nmax = min(grid.cells - 1, count)
    if grid.dimension == 1:
        return np.arange(1, count + 1, dtype=int).reshape(-1, 1)
    ks = [(k1 * k1 + k2 * k2, k1, k2)
          for k1 in range(1, nmax + 1) for k2 in range(1, nmax + 1)]
    ks.sort()
    return np.array([(k1, k2) for _, k1, k2 in ks[:count]], dtype=int)


def _basis_matrix(grid: GridSpec, modes: np.ndarray) -> np.ndarray:
    """Stack of H-orthonormal mode values, shape (count, dof)."""
    ax = grid.axis_nodes()
    if grid.dimension == 1:
        return np.sqrt(2.0) * np.sin(np.outer(modes[:, 0], np.pi * ax))
    s1 = 2.0 * np.sin(np.pi * np.outer(modes[:, 0], ax))
    s2 = np.sin(np.pi * np.outer(modes[:, 1], ax))
    return (s1[:, :, None] * s2[:, None, :]).reshape(len(modes), -1)


@dataclass(frozen=True)
class QWienerSpec:
    """Spectral description of the driving noise on a grid.

    Attributes:
        grid: the spatial grid carrying the sine basis.
        modes: truncation K, between 1 and the grid's (n-1)^N sine modes;
            None takes :func:`default_mode_count`.
        gamma: eigenvalue decay exponent, must exceed 1 (trace class).
        lambda0: eigenvalue scale.
        seed: 64-bit master seed all stream keys derive from.
    """

    grid: GridSpec
    modes: int | None = None
    gamma: float = 2.0
    lambda0: float = 1.0
    seed: int = 0
    mode_indices: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modes is None:
            object.__setattr__(self, "modes", default_mode_count(self.grid))
        if not 1 <= self.modes <= self.grid.dof:
            raise ValidationError(f"modes must be between 1 and the "
                                  f"{self.grid.dof} sine modes of the grid",
                                  field="modes")
        if not self.gamma > 1.0:
            raise ValidationError(
                "gamma must exceed 1 for a trace-class noise", field="gamma")
        if not self.lambda0 > 0:
            raise ValidationError("lambda0 must be positive", field="lambda0")
        idx = _mode_indices(self.grid, self.modes)
        lam = self.lambda0 * np.arange(1, self.modes + 1, dtype=float) ** (-self.gamma)
        for arr in (idx, lam):
            arr.setflags(write=False)
        object.__setattr__(self, "mode_indices", idx)
        object.__setattr__(self, "eigenvalues", lam)

    @cached_property
    def basis(self) -> np.ndarray:
        """H-orthonormal mode values, shape (modes, dof), built on use."""
        basis = _basis_matrix(self.grid, self.mode_indices)
        basis.setflags(write=False)
        return basis


def mode_synthesis(spec: QWienerSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The map from mode coefficients (paths, modes) to fields (paths, dof),
    sum_k c_k e_k, with its tables built now.

    1D multiplies by ``spec.basis``. 2D never builds the (modes, dof) basis
    (7.9 MiB at 128^2 and 64 modes): it scatters each path's coefficients
    into a (k1, k2) matrix C and forms S1^T C S2 from the per-axis sine
    tables S1 = 2 sin(k1 pi x) and S2 = sin(k2 pi y), k up to the largest
    wavenumber among the modes. Both agree with ``coeffs @ spec.basis`` to
    round-off, and a path's field does not depend on the other paths.
    """
    if spec.grid.dimension == 1:
        basis = spec.basis
        return lambda coeffs: coeffs @ basis
    ax = spec.grid.axis_nodes()
    k = np.arange(1, int(spec.mode_indices.max()) + 1)
    s1 = 2.0 * np.sin(np.pi * np.outer(ax, k))  # S1^T, (x, k1)
    s2 = np.sin(np.pi * np.outer(k, ax))
    k1, k2 = spec.mode_indices.T - 1

    def synthesize(coeffs: np.ndarray) -> np.ndarray:
        c = np.zeros((len(coeffs), len(k), len(k)))
        c[:, k1, k2] = coeffs
        return (s1 @ c @ s2).reshape(len(coeffs), -1)

    return synthesize


def partial_trace(spec: QWienerSpec) -> float:
    """Sum of the retained eigenvalues, sum_k lambda_k."""
    return float(spec.eigenvalues.sum())


def trace_tail_bound(spec: QWienerSpec) -> float:
    """Integral bound on the truncated tail: lambda0 * K^(1-gamma) / (gamma-1)."""
    return float(spec.lambda0 * spec.modes ** (1.0 - spec.gamma)
                 / (spec.gamma - 1.0))


def _derive_stream_id(*indices: int) -> int:
    """Stable 64-bit stream id from integer indices via keyed hashing."""
    payload = struct.pack(f"<{len(indices)}q", *indices)
    digest = hashlib.blake2b(payload, digest_size=8, person=b"ns-stream").digest()
    return int.from_bytes(digest, "little")


def _philox_key(seed: int, stream_id: int) -> np.ndarray:
    """The two Philox key words of a stream, [seed, stream_id].

    Both words are taken modulo 2^64. Streams were first keyed with the
    Python list [seed, stream_id], which numpy stores as float64 when
    exactly one word is at least 2^63 (int64 and uint64 promote to
    float64). Both words then keep only 53 significant bits, rounded to
    nearest, and a word that rounds up to 2^64 wraps to 0. That rounding is
    kept here on purpose, so every stream keeps its draws and a numpy
    upgrade cannot re-key them: id 0xf7e6786bb468564c with seed 2026 gives
    the key words 0x7ea and 0xf7e6786bb4685800.
    """
    words = [seed & _MASK64, stream_id & _MASK64]
    if (words[0] >> 63) != (words[1] >> 63):
        words = [int(float(w)) & _MASK64 for w in words]
    return np.array(words, dtype=np.uint64)


@dataclass
class NoiseStream:
    """Counter-addressed Gaussian stream tied to one noise spec.

    The key is (master seed, id(indices)), see :func:`_philox_key`; the
    counter counts consumed mode draws. Reconstructing a stream with the
    same key and counter reproduces the continuation bitwise. The key words
    are computed once, when the stream is built, and kept in the fresh
    generator state that every draw restores; a draw sets only word 0 of
    that state's counter array.
    """

    spec: QWienerSpec
    stream_id: int
    counter: int = 0
    _bits: Philox = field(init=False, repr=False, compare=False)
    _state: dict = field(init=False, repr=False, compare=False)
    _normal: Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._bits = Philox(key=_philox_key(self.spec.seed, self.stream_id))
        self._state = self._bits.state
        self._normal = Generator(self._bits)

    @classmethod
    def derive(cls, spec: QWienerSpec, *indices: int) -> "NoiseStream":
        """Stream keyed by the master seed and the integer ``indices``."""
        return cls(spec=spec, stream_id=_derive_stream_id(*indices))

    def draw(self, count: int | None = None) -> np.ndarray:
        """Next ``count`` standard normals (default: one per mode).

        Advances the counter by ``count``. Each counter window of width K
        maps to a disjoint block range of the underlying generator, so
        windows never overlap. The one generator of the stream is reset to
        the state a freshly built Philox at this counter would have
        (counter, key, empty buffer, no spare 32-bit word), so every draw
        is bitwise that of a fresh build.
        """
        count = self.spec.modes if count is None else int(count)
        # the rest of the fresh build's state (key, counter words 1-3, empty
        # buffer, no spare 32-bit word) is set again as it was
        self._state["state"]["counter"][0] = self.counter & _MASK64
        self._bits.state = self._state
        xi = self._normal.standard_normal(count)
        self.counter += count
        return xi


def sample_increment(stream: NoiseStream, dt: float):
    """One noise increment dW over a step of size dt, as a grid field.

    Synthesis: sum_k sqrt(lambda_k * dt) * xi_k * e_k. Advances the stream
    counter by the mode count.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    spec = stream.spec
    xi = stream.draw(spec.modes)
    coeff = np.sqrt(spec.eigenvalues * dt) * xi
    values = coeff @ spec.basis
    return ScalarField(spec.grid, values.reshape(spec.grid.shape))
