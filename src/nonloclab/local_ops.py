"""Spectral local operators: Laplacian, its zero-flux inverse, gradient energy."""

from __future__ import annotations

import numpy as np

from .grid import (
    Field,
    coefficient_weights,
    field_from_coefficients,
    integrate,
    laplacian_symbol,
    lp_norm,
    spectral_coefficients,
)

__all__ = ["laplacian", "inv_neumann_laplacian", "dirichlet_energy"]

_MEAN_REL_TOL = 1e-10


def laplacian(field: Field) -> Field:
    """Laplacian in the grid's own spectral basis (exact on basis functions)."""
    coeffs = spectral_coefficients(field)
    lam = laplacian_symbol(field.grid)
    return field_from_coefficients(field.grid, -lam * coeffs)


def inv_neumann_laplacian(field: Field) -> Field:
    """Solve ``-lap v = field`` with zero-flux data and zero-mean output.

    The input must be (numerically) mean free; callers holding a field with
    mass must split the mean off first.
    """
    mass = integrate(field)
    scale = lp_norm(field, 1)
    if abs(mass) > _MEAN_REL_TOL * scale:
        raise ValueError(
            "inverse Laplacian needs mean-zero input; split the mean off first "
            f"(|mean integral| = {abs(mass):.3e}, L1 scale = {scale:.3e})"
        )
    grid = field.grid
    coeffs = spectral_coefficients(field)
    lam = laplacian_symbol(grid).copy()
    idx = (0,) * grid.dimension  # the mean mode
    lam[idx] = 1.0  # dummy; the zero mode is pinned to zero below
    out = coeffs / lam
    out[idx] = 0.0
    return field_from_coefficients(grid, out)


def dirichlet_energy(field: Field) -> float:
    """Half the squared gradient norm, evaluated spectrally."""
    coeffs = spectral_coefficients(field)
    lam = laplacian_symbol(field.grid)
    weighted = lam * np.abs(coeffs) ** 2 * coefficient_weights(field.grid)
    return float(0.5 * np.sum(weighted) * field.grid.cell_volume)
