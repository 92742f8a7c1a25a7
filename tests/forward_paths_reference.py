"""The forward construction of the Brownian levels, kept as the reference for
the backward bridge that replaced it.

Standard normals scaled by the square root of each gap were the increments
W_{k+1} - W_k, and the levels were their prefix sums from W_0 = 0.  The law
tests compare the two constructions' moments.
"""

import numpy as np


def forward_levels(grid, dim, n_paths, seed):
    """(M, N, d) levels of ``n_paths`` d-dimensional paths on ``grid``."""
    n_steps = grid.n_points - 1
    normals = np.random.default_rng(seed).standard_normal((n_paths, n_steps, dim))
    increments = normals * np.sqrt(grid.gaps)[None, :, None]
    levels = np.zeros((n_paths, n_steps + 1, dim))
    np.cumsum(increments, axis=1, out=levels[:, 1:])
    return levels
