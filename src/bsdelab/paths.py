"""Brownian path simulation with counter-based, worker-independent random streams.

Each path owns a Philox stream keyed by (seed, path index), so regenerating any
subset of paths, in any partitioning across workers, reproduces the same bits.
The streams are computed by a numpy Philox4x64-10 kernel, bit for bit equal to
numpy's ``Philox`` bit generator.  Gaussians come from the inverse normal CDF
applied to the raw counter output; no rejection sampling, so the draw count per
path is fixed.

The levels are one backward Brownian bridge from W_T (Glasserman, "Monte Carlo
Methods in Financial Engineering", 2004, ch. 3): word k d + j of path m's
stream drives coordinate j of node N - 1 - k, with

    W_{N-1} = sqrt(t_{N-1}) xi,
    W_i = (t_i / t_{i+1}) W_{i+1} + sqrt(t_i (t_{i+1} - t_i) / t_{i+1}) xi,

and W_0 = 0.  The words of ``GROUP`` nodes fill ``dim`` Philox counters, so a
backward sweep draws the levels one group of nodes at a time (``LevelStream``)
and never holds all of them.
"""

from __future__ import annotations

import math
import operator
from typing import Optional

import numpy as np

from .coefficients import TimeGrid
from .errors import ResourceLimit

# elements of a bundle's (N, d, M) levels: ~1.6 GB of float64.  A simulated
# bundle holds none of them, but a read of its levels allocates them all.
MEMORY_CAP_ELEMENTS = 200_000_000
DRAW_BLOCK = 1 << 16      # words of one bridge group per block of paths a read draws
GROUP = 4                 # nodes whose words share a Philox counter (per coordinate)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHILOX_ROUNDS = 10
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


class PathBundle:
    """Brownian levels for M paths on a grid, and the increments between them.

    ``levels`` is (M, N, d), the array passed in where one is: it must have
    the shape (n_paths, grid.n_points, dim).  A bundle built without levels,
    as ``simulate_paths`` builds it, holds no path array: each read of its
    ``levels`` draws them from ``seed`` into a new node-major (N, d, M) array,
    seen as (M, N, d), bit for bit the rows a ``LevelStream`` gives a
    backward sweep.  ``increments`` are the differences W_{i+1} - W_i of one
    read of the levels, node-major where the levels are.
    """

    __slots__ = ("grid", "dim", "n_paths", "seed", "_levels")

    def __init__(self, grid: TimeGrid, dim: int, n_paths: int,
                 levels: Optional[np.ndarray], seed: int):
        shape = (n_paths, grid.n_points, dim)
        if levels is not None and np.shape(levels) != shape:
            raise ValueError(f"levels must have shape (n_paths, n_points, dim) = {shape}, "
                             f"got {np.shape(levels)}")
        self.grid, self.dim, self.n_paths, self.seed = grid, dim, n_paths, seed
        self._levels = levels

    @property
    def n_steps(self) -> int:
        return self.grid.n_points - 1

    @property
    def drawn(self) -> bool:
        """Whether the levels are drawn from the seed on every read."""
        return self._levels is None

    @property
    def levels(self) -> np.ndarray:
        if self._levels is not None:
            return self._levels
        return _draw_levels(self).transpose(2, 0, 1)

    @property
    def increments(self) -> np.ndarray:
        return self.levels_and_increments()[1]

    def levels_and_increments(self) -> tuple:
        """``levels`` and ``increments`` from one read of the levels."""
        levels = self.levels
        return levels, np.subtract(levels[:, 1:], levels[:, :-1])

    def check_grid(self, grid: TimeGrid) -> None:
        """``ValueError`` unless the bundle's paths live on ``grid``'s nodes."""
        if self.grid is not grid and not np.array_equal(self.grid.points, grid.points):
            raise ValueError("bundle was simulated on a different grid")


def _mulhilo(a: np.ndarray, mul: int, hi: np.ndarray, t) -> None:
    """High 64-bit word of the 128-bit product ``a * mul`` into ``hi``,
    elementwise, with the four uint64 buffers ``t`` of ``a``'s shape.

    The word is assembled from 32-bit halves, whose partial products cannot
    overflow.
    """
    m_hi, m_lo = np.uint64(mul >> 32), np.uint64(mul & 0xFFFFFFFF)
    a_hi = np.right_shift(a, _SHIFT32, out=t[0])
    a_lo = np.bitwise_and(a, _LOW32, out=t[1])
    np.multiply(a_hi, m_hi, out=hi)
    lh = np.multiply(a_lo, m_hi, out=t[2])
    hl = np.multiply(a_hi, m_lo, out=t[3])
    mid = np.multiply(a_lo, m_lo, out=t[1])
    np.right_shift(mid, _SHIFT32, out=mid)
    for part in (lh, hl):       # hi takes the high halves, mid the low ones
        np.add(hi, np.right_shift(part, _SHIFT32, out=t[0]), out=hi)
        np.add(mid, np.bitwise_and(part, _LOW32, out=part), out=mid)
    np.add(hi, np.right_shift(mid, _SHIFT32, out=mid), out=hi)


def _philox(seed: int, first_counter: int, keys: np.ndarray, words: np.ndarray) -> list:
    """The Philox4x64-10 blocks of the counters ``first_counter`` + 1, ... for
    the path indices ``keys`` (P,), in the uint64 buffer ``words``
    (10, n_ctr, P); ``keys`` is consumed.  Returns the four output words of
    every block, each an (n_ctr, P) view of ``words``.

    The counter [c, 0, 0, 0] is numpy's for block c - 1 (numpy increments it
    before the first block).  Salmon et al., "Parallel random numbers: as easy
    as 1, 2, 3" (SC'11).
    """
    x, h, t = list(words[:4]), list(words[4:6]), words[6:]
    for c, row in enumerate(x[0]):
        row.fill(first_counter + 1 + c)
    for word in x[1:]:
        word.fill(0)
    bump1 = np.uint64(_PHILOX_BUMP[1])
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_BUMP[0]) & _MASK64)
        _mulhilo(x[0], _PHILOX_MUL[0], h[0], t)
        _mulhilo(x[2], _PHILOX_MUL[1], h[1], t)
        np.multiply(x[0], np.uint64(_PHILOX_MUL[0]), out=x[0])
        np.multiply(x[2], np.uint64(_PHILOX_MUL[1]), out=x[2])
        np.bitwise_xor(np.bitwise_xor(h[1], x[1], out=h[1]), k0, out=h[1])
        np.bitwise_xor(np.bitwise_xor(h[0], x[3], out=h[0]), keys, out=h[0])
        # (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0); x1 and x3 are free
        x, h = [h[1], x[2], h[0], x[0]], [x[1], x[3]]
        np.add(keys, bump1, out=keys)       # the next round's key, mod 2^64
    return x


def _philox_raw(seed: int, paths: np.ndarray, count: int,
                first_counter: int = 0) -> np.ndarray:
    """``count`` raw words of the Philox4x64-10 stream keyed by (seed, m) from
    word 4 ``first_counter`` on, for every path index m in ``paths``: a
    (len(paths), count) uint64 array.

    Bit for bit numpy's ``Philox(key=[seed, m]).random_raw`` from that word
    on: each block yields its four output words in order.
    """
    n_ctr = -(-count // 4)
    keys = np.array(paths, dtype=np.uint64)
    words = np.empty((10, n_ctr, len(keys)), dtype=np.uint64)
    blocks = np.stack(_philox(seed, first_counter, keys, words), axis=-1)
    return blocks.transpose(1, 0, 2).reshape(len(keys), 4 * n_ctr)[:, :count]


class DrawScratch:
    """One worker's buffers for the bridge groups of up to ``n_paths`` paths:
    the Philox words of ``dim`` counters, the path keys and a float row."""

    def __init__(self, dim: int, n_paths: int):
        self.offsets = np.arange(n_paths, dtype=np.uint64)
        self.keys = np.empty(n_paths, dtype=np.uint64)
        self.words = np.empty(10 * dim * n_paths, dtype=np.uint64)
        self.row = np.empty(dim * n_paths)


class LevelStream:
    """A bundle's levels node by node, from T backward, as a backward sweep
    reads them: ``level(i)`` is the (d, M) row of node i.

    A stored bundle's rows are views of its levels.  A drawn bundle's live in
    a window of ``GROUP`` + 1 rows, the nodes of one bridge group and the node
    above it: ``advance(i)`` reports whether node i lies below the window and
    then slides it down one group, whose rows ``draw`` fills one path chunk
    at a time.  A row stays valid until the window slides past it.
    """

    def __init__(self, bundle: PathBundle):
        self.bundle, self.window, self.top = bundle, None, None
        if bundle.drawn:
            import scipy.special    # noqa: F401 -- on this thread, before any pool draws
            self.window = np.empty((GROUP + 1, bundle.dim, bundle.n_paths))

    def advance(self, i: int) -> bool:
        if self.window is None or (self.top is not None and i > self.top - GROUP):
            return False
        if self.top is None:
            self.top = self.bundle.n_steps
        else:       # the new group's W_{top+1}, the old group's lowest node
            np.copyto(self.window[GROUP], self.window[0])
            self.top -= GROUP
        return True

    def draw(self, cols: slice, scratch: DrawScratch) -> None:
        """The paths ``cols`` of the window's group, from its top node down.

        The group's words are those of the ``dim`` Philox counters from
        (N - 1 - top) / GROUP * dim on.  Below N - 1 a node's bridge starts
        from the row above it, the window's last row at the top node.  Node 0
        takes no word: W_0 = 0.
        """
        from scipy.special import ndtri     # loaded by the constructor

        top, pts, n = self.top, self.bundle.grid.points, self.bundle.grid.n_points
        win = self.window[:, :, cols]       # node i in row i - top + GROUP - 1
        _, dim, p = win.shape
        if top < GROUP:
            win[GROUP - 1 - top] = 0.0
        drawn = range(top, max(top - GROUP, 0), -1)
        if not drawn:
            return
        keys = np.add(scratch.offsets[:p], np.uint64(cols.start), out=scratch.keys[:p])
        words = scratch.words[:10 * dim * p].reshape(10, dim, p)
        x = _philox(self.bundle.seed, (n - 1 - top) // GROUP * dim, keys, words)
        tmp = scratch.row[:dim * p].reshape(dim, p)
        for k, i in enumerate(drawn):
            w = win[i - top + GROUP - 1]
            for j in range(dim):
                q = k * dim + j
                raw = np.right_shift(x[q % 4][q // 4], _SHIFT11, out=x[q % 4][q // 4])
                # strictly inside (0, 1), so ndtri never hits an endpoint
                u = np.multiply(np.add(raw, 0.5, out=tmp[0]), 2.0 ** -53, out=tmp[0])
                ndtri(u, out=w[j])
            t = float(pts[i])
            if i == n - 1:
                np.multiply(w, math.sqrt(t), out=w)
            else:
                t_next = float(pts[i + 1])
                np.multiply(win[i - top + GROUP], t / t_next, out=tmp)
                np.multiply(w, math.sqrt(t * (t_next - t) / t_next), out=w)
                np.add(tmp, w, out=w)

    def level(self, i: int) -> np.ndarray:
        if self.window is None:
            return self.bundle.levels[:, i, :].T
        return self.window[i - self.top + GROUP - 1]


def _draw_levels(bundle: PathBundle) -> np.ndarray:
    """A drawn bundle's node-major (N, d, M) levels: the rows of a
    ``LevelStream`` walked from T to 0, each group drawn in blocks of about
    ``DRAW_BLOCK`` words."""
    n, dim, n_paths = bundle.grid.n_points, bundle.dim, bundle.n_paths
    per_block = max(1, DRAW_BLOCK // (GROUP * dim))
    blocks = [slice(lo, min(lo + per_block, n_paths)) for lo in range(0, n_paths, per_block)]
    stream, scratch = LevelStream(bundle), DrawScratch(dim, min(per_block, n_paths))
    out = np.empty((n, dim, n_paths))
    for i in range(n - 1, -1, -1):
        if stream.advance(i):
            for cols in blocks:
                stream.draw(cols, scratch)
        out[i] = stream.level(i)
    return out


def simulate_paths(grid: TimeGrid, dim: int, n_paths: int, seed: int,
                   memory_cap: int = MEMORY_CAP_ELEMENTS) -> PathBundle:
    """``n_paths`` independent d-dimensional Brownian paths on the grid.

    Deterministic in ``seed``, which must lie in [0, 2^64).  The bundle
    holds no path array: a read of its ``levels`` draws them, a backward sweep
    streams them one group of nodes at a time.  ``memory_cap`` bounds the
    N M d elements of the levels.
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
    return PathBundle(grid, dim, n_paths, None, seed)
