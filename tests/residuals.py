"""The ladder's gradient residuals as they were computed before their sums
were fused, kept as the loop oracle of ``diagnostics._residual_energies``.

Per axis j the corrected residual is de - (dh s_jj + dh + sum_{i != j}
avg_i s_ij), each transverse average taken in two halving steps, and each
residual is squared into a temporary and summed by ``np.sum`` over the grid
axes. The fused function forms de - dh (1 + s_jj) - sum avg_i s_ij and sums
by ``einsum``, so the two agree to round-off, not bitwise.
"""
import numpy as np

from twoscale.grid import GridSpec, adjacent_pairs, face_sums


def face_energy_loop(diffs: list[np.ndarray], grid: GridSpec) -> np.ndarray:
    """h^N * sum over faces of (D/h)^2 with a squared temporary per axis."""
    grid_axes = tuple(range(-grid.dimension, 0))
    total = 0.0
    for d in diffs:
        total = total + np.sum(d * d, axis=grid_axes)
    return total * (grid.h ** grid.dimension / grid.h ** 2)


def gradient_residuals_loop(eps_grad: list[np.ndarray],
                            hom_grad: list[np.ndarray],
                            face_slopes: list[np.ndarray], grid: GridSpec,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-path squared H norms of the plain and corrected gradient
    residuals, from the face slope matrices of ``_face_corrector_slopes``."""
    dim = grid.dimension
    plain, corrected = [], []
    for j, (de, dh) in enumerate(zip(eps_grad, hom_grad)):
        plain.append(de - dh)
        terms = []
        for i, d in enumerate(hom_grad):
            if i != j:
                d = 0.5 * face_sums(0.5 * np.add(*adjacent_pairs(d, i, dim)),
                                    j, dim)
            terms.append(d * face_slopes[j][..., i, j][None])
        rec = terms[0]
        rec += dh  # dh + each slope term, in axis order
        for term in terms[1:]:
            rec += term
        corrected.append(np.subtract(de, rec, out=rec))
    return face_energy_loop(plain, grid), face_energy_loop(corrected, grid)
