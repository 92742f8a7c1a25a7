"""The two-array ``simulate_paths`` kept as the reference for the levels-only one.

This is ``simulate_paths`` as it was while a bundle held both the increments,
node-major (N - 1, d, M), and their prefix sums, node-major (N, d, M): the
draws were written and scaled in one array, then summed into a second.  It
returns the two (M, N - 1, d) and (M, N, d) views.  The differential tests
compare a simulated bundle's levels and its redrawn increments against it, bit
for bit.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import ndtri

from bsdelab import paths


def simulate_two_arrays(grid, dim, n_paths, seed, workers=1):
    """(increments, levels) of ``n_paths`` d-dimensional paths on ``grid``."""
    n_steps = grid.n_points - 1
    node_major = np.empty((n_steps, dim, n_paths), dtype=np.float64)
    count = n_steps * dim
    rows = node_major.reshape(count, n_paths).T

    def fill(block):
        lo, hi = block
        raw = paths._philox_raw(seed, np.arange(lo, hi, dtype=np.uint64), count)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        ndtri(u, out=rows[lo:hi])

    per_block = max(1, paths.DRAW_BLOCK // count)
    blocks = [(lo, min(lo + per_block, n_paths)) for lo in range(0, n_paths, per_block)]
    pool_size = min(workers, len(blocks))
    if pool_size <= 1:
        for block in blocks:
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            list(pool.map(fill, blocks))

    node_major *= np.sqrt(grid.gaps)[:, None, None]
    levels = np.empty((n_steps + 1, dim, n_paths), dtype=np.float64)
    levels[0] = 0.0
    levels[1:2] = node_major[:1]
    for i in range(1, n_steps):
        np.add(levels[i], node_major[i], out=levels[i + 1])
    return node_major.transpose(2, 0, 1), levels.transpose(2, 0, 1)
