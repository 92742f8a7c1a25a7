"""Brownian path simulation with counter-based, worker-independent random streams.

Each path owns a Philox stream keyed by (seed, path index), so regenerating any
subset of paths, in any partitioning across workers, reproduces the same bits.
The streams are computed by a numpy Philox4x64-10 kernel, one block of paths
per pass, bit for bit equal to numpy's ``Philox`` bit generator.
Gaussians come from the inverse normal CDF applied to the raw counter output;
no rejection sampling, so the draw count per path is fixed.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from .coefficients import TimeGrid
from .errors import ResourceLimit

# elements of a bundle's one (N, d, M) array, its levels: ~1.6 GB of float64.
# The cap bounds the whole bundle; a bundle that also held the increments
# would hold (2N - 1) M d elements, about twice the capped count.
MEMORY_CAP_ELEMENTS = 200_000_000
DRAW_BLOCK = 1 << 16      # raw draws per block of paths: cache-sized temporaries

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHILOX_ROUNDS = 10
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class PathBundle:
    """Brownian levels for M paths on a grid, and the increments they sum.

    The levels are the one array a simulated bundle holds.  The library's
    bundles keep it node-major in memory, (N, d, M), and expose it as an
    (M, N, d) view: ``levels[:, i, j]``, what a backward sweep reads at node
    i, is contiguous.  Any (M, N, d) array serves.

    ``increments``, (M, N - 1, d) with variance the grid gap, is the array
    passed in, where one is.  A bundle built without one, as
    ``simulate_paths`` builds it, redraws the increments from ``seed`` on
    every read: bit for bit the draws its levels sum, in a new (N - 1, d, M)
    node-major array, at the cost of a second simulation.  A backward sweep
    takes W_{i+1} - W_i from the levels instead.
    """

    __slots__ = ("grid", "dim", "n_paths", "levels", "seed", "_increments")

    def __init__(self, grid: TimeGrid, dim: int, n_paths: int, levels: np.ndarray,
                 seed: int, increments: Optional[np.ndarray] = None):
        self.grid, self.dim, self.n_paths = grid, dim, n_paths
        self.levels, self.seed, self._increments = levels, seed, increments

    @property
    def n_steps(self) -> int:
        return self.grid.n_points - 1

    @property
    def increments(self) -> np.ndarray:
        if self._increments is not None:
            return self._increments
        node_major = np.empty((self.n_steps, self.dim, self.n_paths))
        _draw_increments(node_major, self.grid, self.seed)
        return node_major.transpose(2, 0, 1)


def _mulhilo(a: np.ndarray, mul: int) -> tuple:
    """High and low 64-bit words of the 128-bit product ``a * mul``, elementwise.

    The low word is numpy's wrapping uint64 multiply; the high word is
    assembled from 32-bit halves, whose partial products cannot overflow.
    """
    m_hi, m_lo = np.uint64(mul >> 32), np.uint64(mul & 0xFFFFFFFF)
    a_hi, a_lo = a >> _SHIFT32, a & _LOW32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * np.uint64(mul)


def _philox_raw(seed: int, paths: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` raw words of the Philox4x64-10 stream keyed by (seed, m),
    for every path index m in ``paths``: a (len(paths), count) uint64 array.

    Bit for bit numpy's ``Philox(key=[seed, m]).random_raw(count)``: the
    counter [c, 0, 0, 0] runs over c = 1, 2, ... (numpy increments it before
    the first block) and each block yields its four output words in order.
    Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).
    """
    n_ctr = -(-count // 4)
    # (1, 1)-shaped zeros keep every operand an array, so uint64 arithmetic
    # wraps silently; broadcasting grows the words to (paths, n_ctr) by round 2
    zero = np.zeros((1, 1), dtype=np.uint64)
    x0, x1, x2, x3 = np.arange(1, n_ctr + 1, dtype=np.uint64)[None, :], zero, zero, zero
    key1 = np.asarray(paths, dtype=np.uint64)[:, None]
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_BUMP[0]) & _MASK64)
        k1 = key1 + np.uint64((r * _PHILOX_BUMP[1]) & _MASK64)
        hi0, lo0 = _mulhilo(x0, _PHILOX_MUL[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_MUL[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)
    return words.reshape(len(key1), 4 * n_ctr)[:, :count]


def _draw_increments(out: np.ndarray, grid: TimeGrid, seed: int,
                     workers: int = 1) -> None:
    """Fill the node-major (N - 1, d, M) ``out`` with the scaled Gaussian
    increments of the paths' Philox streams, in blocks of about ``DRAW_BLOCK``
    draws spread over ``min(workers, blocks)`` threads."""
    # imported here, not with the module: scipy.special is most of the
    # package's import time, and only simulation needs it; the import runs in
    # this thread, before the pool below gets a block
    from scipy.special import ndtri

    n_steps, dim, n_paths = out.shape
    count = n_steps * dim
    rows = out.reshape(count, n_paths).T          # the per-path (M, (N-1) d) view
    scale = np.repeat(np.sqrt(grid.gaps), dim)

    def fill(block):
        lo, hi = block
        raw = _philox_raw(seed, np.arange(lo, hi, dtype=np.uint64), count)
        # strictly inside (0, 1) so ndtri never hits an endpoint
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        ndtri(u, out=rows[lo:hi])
        rows[lo:hi] *= scale

    per_block = max(1, DRAW_BLOCK // count)
    blocks = [(lo, min(lo + per_block, n_paths)) for lo in range(0, n_paths, per_block)]
    pool_size = min(workers, len(blocks))
    if pool_size <= 1:
        for block in blocks:
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            list(pool.map(fill, blocks))


def simulate_paths(grid: TimeGrid, dim: int, n_paths: int, seed: int,
                   workers: int = 1,
                   memory_cap: int = MEMORY_CAP_ELEMENTS) -> PathBundle:
    """Simulate ``n_paths`` independent d-dimensional Brownian paths on the grid.

    Deterministic in ``seed``, which must lie in [0, 2^64), and independent of
    ``workers``. Paths are generated in blocks of about ``DRAW_BLOCK`` draws;
    the worker count only spreads the blocks over a thread pool.  The bundle
    holds one node-major (N, d, M) array: the increments are drawn into its
    rows 1 ... N - 1 and summed into levels in place, so the simulation never
    holds a second one.
    """
    if n_paths < 1 or dim < 1:
        raise ValueError("n_paths and dim must be positive")
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if n_paths * grid.n_points * dim > memory_cap:
        raise ResourceLimit(
            f"bundle of {n_paths}x{grid.n_points}x{dim} exceeds the memory cap"
        )
    levels = np.empty((grid.n_points, dim, n_paths), dtype=np.float64)
    levels[0] = 0.0
    _draw_increments(levels[1:], grid, seed, workers)
    # the prefix sums along the nodes, one contiguous node row at a time: the
    # additions of ``np.cumsum`` along the nodes, in its order
    for i in range(1, grid.n_points - 1):
        np.add(levels[i], levels[i + 1], out=levels[i + 1])
    return PathBundle(grid=grid, dim=dim, n_paths=n_paths,
                      levels=levels.transpose(2, 0, 1), seed=seed)
