"""The forward construction of the Brownian levels, kept as the reference for
the backward bridge that replaced it.

Word k d + j of path m's Philox stream drove coordinate j of the increment
W_{k+1} - W_k, scaled by the square root of its gap, and the levels were the
prefix sums of the increments from W_0 = 0.  The law tests compare the two
constructions' moments.
"""

import numpy as np
from scipy.special import ndtri

from bsdelab import paths


def forward_levels(grid, dim, n_paths, seed):
    """(M, N, d) levels of ``n_paths`` d-dimensional paths on ``grid``."""
    n_steps = grid.n_points - 1
    raw = paths._philox_raw(seed, np.arange(n_paths, dtype=np.uint64), n_steps * dim)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    increments = ndtri(u).reshape(n_paths, n_steps, dim) * np.sqrt(grid.gaps)[None, :, None]
    levels = np.zeros((n_paths, n_steps + 1, dim))
    np.cumsum(increments, axis=1, out=levels[:, 1:])
    return levels
