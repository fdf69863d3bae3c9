"""Q-Wiener sampling: calibration, determinism, stream independence."""
from __future__ import annotations

import numpy as np
import pytest
from numpy.random import Generator, Philox

from twoscale import noise
from twoscale.grid import GridSpec, norm_H
from twoscale.noise import (
    NoiseStream,
    QWienerSpec,
    _philox_key,
    default_mode_count,
    partial_trace,
    sample_increment,
    trace_tail_bound,
)


def make_spec(modes=8, gamma=2.0, lambda0=1.0, seed=0, cells=64):
    grid = GridSpec(dimension=1, cells=cells)
    return QWienerSpec(grid=grid, modes=modes, gamma=gamma, lambda0=lambda0,
                       seed=seed)


def test_eigenvalues_positive_decreasing():
    spec = make_spec(modes=16)
    lam = spec.eigenvalues
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) < 0)


def test_partial_trace_values():
    assert abs(partial_trace(make_spec(modes=1)) - 1.0) < 1e-15
    spec = make_spec(modes=4, lambda0=2.0)
    assert abs(partial_trace(spec)
               - 2.0 * (1 + 0.25 + 1 / 9 + 1 / 16)) < 1e-12
    # doubling lambda0 doubles the trace
    assert abs(partial_trace(make_spec(modes=4, lambda0=1.0)) * 2.0
               - partial_trace(spec)) < 1e-12


def test_partial_trace_approaches_zeta_two():
    grid = GridSpec(dimension=1, cells=16384)
    spec = QWienerSpec(grid=grid, modes=10000, gamma=2.0, lambda0=1.0, seed=0)
    assert abs(partial_trace(spec) - np.pi ** 2 / 6.0) < 1e-4
    assert trace_tail_bound(spec) >= np.pi ** 2 / 6.0 - partial_trace(spec)


def test_single_mode_variance_calibration():
    spec = make_spec(modes=1, seed=3)
    dt = 0.01
    stream = NoiseStream.derive(spec, 0)
    draws = np.array([stream.draw(1)[0] for _ in range(10000)])
    coeff_var = np.var(np.sqrt(spec.eigenvalues[0] * dt) * draws)
    assert abs(coeff_var - dt) / dt < 0.05


def test_increment_H_norm_matches_partial_trace():
    spec = make_spec(modes=8, seed=5)
    dt = 0.01
    stream = NoiseStream.derive(spec, 0)
    acc = 0.0
    n_draws = 10000
    for _ in range(n_draws):
        dw = sample_increment(stream, dt)
        acc += norm_H(dw) ** 2
    expected = partial_trace(spec) * dt
    assert abs(acc / n_draws - expected) / expected < 0.05


def test_same_key_and_counter_reproduces_bitwise():
    spec = make_spec(modes=8, seed=9)
    a = NoiseStream.derive(spec, 4, 2)
    first = [a.draw() for _ in range(3)]
    b = NoiseStream.derive(spec, 4, 2)
    second = [b.draw() for _ in range(3)]
    for x, y in zip(first, second):
        assert np.array_equal(x, y)
    # resuming mid-stream from a saved counter also reproduces
    c = NoiseStream(spec=spec, stream_id=a.stream_id, counter=spec.modes)
    assert np.array_equal(c.draw(), first[1])


def test_distinct_keys_decorrelated():
    spec = make_spec(modes=1, seed=1)
    s0 = NoiseStream.derive(spec, 0)
    s1 = NoiseStream.derive(spec, 1)
    x = np.array([s0.draw(1)[0] for _ in range(10000)])
    y = np.array([s1.draw(1)[0] for _ in range(10000)])
    assert abs(np.corrcoef(x, y)[0, 1]) <= 0.05


def test_disjoint_steps_uncorrelated():
    spec = make_spec(modes=1, seed=2)
    stream = NoiseStream.derive(spec, 0)
    draws = np.array([stream.draw(1)[0] for _ in range(20000)])
    even, odd = draws[0::2], draws[1::2]
    assert abs(np.corrcoef(even, odd)[0, 1]) <= 0.05


def test_increment_scaling_with_step_size():
    spec = make_spec(modes=1, seed=7)
    dt = 4e-3
    s1 = NoiseStream.derive(spec, 0)
    s4 = NoiseStream.derive(spec, 1)
    small = np.array([sample_increment(s1, dt).values[5]
                      for _ in range(10000)])
    large = np.array([sample_increment(s4, 4 * dt).values[5]
                      for _ in range(10000)])
    ratio = np.std(large) / np.std(small)
    assert abs(ratio - 2.0) / 2.0 < 0.05


def test_basis_gram_matrix_is_identity():
    for grid in (GridSpec(dimension=1, cells=64),
                 GridSpec(dimension=2, cells=16)):
        spec = QWienerSpec(grid=grid, modes=12, gamma=2.0, lambda0=1.0,
                           seed=0)
        basis = spec.basis  # (K, dof) rows
        gram = grid.h ** grid.dimension * (basis @ basis.T)
        assert np.max(np.abs(gram - np.eye(spec.modes))) <= 1e-10


def test_default_mode_count_caps_at_grid_resolution():
    assert default_mode_count(GridSpec(dimension=1, cells=16)) == 15
    assert default_mode_count(GridSpec(dimension=1, cells=256)) == 64


def test_spec_rejects_bad_parameters():
    grid = GridSpec(dimension=1, cells=64)
    with pytest.raises(ValueError):
        QWienerSpec(grid=grid, modes=0, gamma=2.0, lambda0=1.0, seed=0)
    with pytest.raises(ValueError):
        QWienerSpec(grid=grid, modes=4, gamma=1.0, lambda0=1.0, seed=0)
    with pytest.raises(ValueError):
        QWienerSpec(grid=grid, modes=4, gamma=2.0, lambda0=-1.0, seed=0)
    with pytest.raises(ValueError):
        QWienerSpec(grid=grid, modes=64, gamma=2.0, lambda0=1.0, seed=0)


# ---------------------------------------------------------------------------
# stream keys and generator reuse


@pytest.mark.parametrize("seed, stream_id, words", [
    # both words below 2^63: exact
    (2026, 0x3CB87372515174B9, (0x7EA, 0x3CB87372515174B9)),
    # exactly one word at or above 2^63: both rounded to 53 bits
    (2026, 0xF7E6786BB468564C, (0x7EA, 0xF7E6786BB4685800)),
    (2 ** 63 + 12345, 5, (0x8000000000003000, 5)),
    (2 ** 53 + 1, 2 ** 63, (2 ** 53, 2 ** 63)),
    # a word rounding up to 2^64 wraps to 0
    (3, 2 ** 64 - 1, (3, 0)),
    # both words at or above 2^63: exact
    (2 ** 63 + 12345, 2 ** 63 + 77, (2 ** 63 + 12345, 2 ** 63 + 77)),
    # words are taken modulo 2^64
    (-1, 2 ** 64 + 5, (0, 5)),
])
def test_philox_key_words(seed, stream_id, words):
    key = _philox_key(seed, stream_id)
    assert key.dtype == np.uint64
    assert [int(k) for k in key] == list(words)


# First draws of three streams at seed 2026, pinned so that neither a
# numpy upgrade nor a change of the key derivation can silently re-key
# every stream; (1, 0) has an id >= 2^63, whose key word is rounded.
GOLDEN = {
    (0,): ([-0.5705233264083605, -1.2210454219056315, -0.4987559171579578],
           [-1.2200283020303504, 0.6255064845375277]),
    (1, 0): ([-0.1964082872393057, 1.9154667660804952, -0.10514277028229543],
             [-0.6052493923381026, -0.3482948829756404]),
    (2, 5): ([0.5263672703365538, 1.1932796336521994, -0.9383288416547194],
             [-0.8214137321232359, 0.13322661096701832]),
}


@pytest.mark.parametrize("indices", sorted(GOLDEN))
def test_golden_draws(indices):
    spec = QWienerSpec(grid=GridSpec(dimension=1, cells=16), modes=3,
                       seed=2026)
    stream = NoiseStream.derive(spec, *indices)
    first, second = GOLDEN[indices]
    assert stream.draw().tolist() == first
    assert stream.draw(2).tolist() == second
    assert (stream.stream_id >= 2 ** 63) == (indices == (1, 0))


def test_stream_key_is_computed_once(monkeypatch):
    # The key words are computed when the stream is built; a draw only
    # moves the counter.
    spec = QWienerSpec(grid=GridSpec(dimension=1, cells=16), modes=3,
                       seed=2026)
    stream = NoiseStream.derive(spec, 0)

    def recomputed(*args):
        raise AssertionError("key words computed again")

    monkeypatch.setattr(noise, "_philox_key", recomputed)
    first, second = GOLDEN[(0,)]
    assert stream.draw().tolist() == first
    assert stream.draw(2).tolist() == second


def test_reused_stream_matches_fresh_generator_bitwise():
    # One generator per stream, reset before each draw, must give what a
    # Philox built afresh at that counter gives: over several counters,
    # counts that are not multiples of the 4-word block, and interleaved
    # sizes that leave the block buffer part-used between draws.
    spec = make_spec(modes=8, seed=2026)
    for indices in ((0,), (1, 0), (7, 3)):
        stream = NoiseStream.derive(spec, *indices)
        key = _philox_key(spec.seed, stream.stream_id)
        counter = 0
        for count in (8, 3, 5, 1, 13, 8, 2, 7):
            fresh = Generator(Philox(counter=[counter, 0, 0, 0], key=key))
            assert np.array_equal(stream.draw(count),
                                  fresh.standard_normal(count))
            counter += count
        assert stream.counter == counter


def test_stream_builds_one_generator(monkeypatch):
    builds = []

    def counting(*args, **kwargs):
        builds.append(1)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(noise, "Philox", counting)
    spec = make_spec(modes=4, seed=1)
    streams = [NoiseStream.derive(spec, i) for i in range(3)]
    for _ in range(5):
        for stream in streams:
            stream.draw()
    assert len(builds) == 3
