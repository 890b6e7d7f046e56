"""Numerical laboratory for nonlocal diffusion operators and their local limits.

The package builds compactly supported radial kernels whose induced integral
operator approaches the negative Laplacian as the interaction scale shrinks,
runs the associated conserved and non-conserved gradient flows, and measures
the empirical convergence rates: the whole-space symbol rate, the square-root
rate on a box where the kernel sees the boundary, and the square-root rate
for the flows themselves under matching initial offsets.

Every name is imported from its own module (``nonloclab.kernels``,
``nonloclab.grid``, ``nonloclab.cli``, ...); the package itself exports only
``__version__`` and the checkpoint reader ``load_field``.
"""

from .grid import load_field

__all__ = ["__version__", "load_field"]

__version__ = "0.1.0"
