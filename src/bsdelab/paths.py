"""Brownian path simulation from counter-based random streams.

The levels are one backward Brownian bridge from W_T (Glasserman, "Monte Carlo
Methods in Financial Engineering", 2004, ch. 3).  Coordinate j of node
N - 1 - k is driven by numpy's Philox stream keyed by (seed, k d + j)
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), whose
m-th standard normal is path m's xi:

    W_{N-1} = sqrt(t_{N-1}) xi,
    W_i = (t_i / t_{i+1}) W_{i+1} + sqrt(t_i (t_{i+1} - t_i) / t_{i+1}) xi,

and W_0 = 0 takes no stream.  Path m's values therefore do not depend on M: a
bundle of M paths is the first M paths of any larger bundle with the same seed
and grid.  A backward sweep draws each node's row when it first reaches the
node (``LevelStream``) and never holds more than two of them.  A sample is
reproducible for a given numpy version: numpy does not freeze the
distributions of its ``Generator`` (NEP 19).
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

_MASK64 = 0xFFFFFFFFFFFFFFFF


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
        """``ValueError`` unless the bundle's paths live on ``grid``'s nodes and
        are one-dimensional: the solvers take one Brownian dimension."""
        if self.grid is not grid and not np.array_equal(self.grid.points, grid.points):
            raise ValueError("bundle was simulated on a different grid")
        if self.dim != 1:
            raise ValueError(f"the solvers take one Brownian dimension, got {self.dim}")


def _standard_normals(seed: int, stream: int, out: np.ndarray) -> None:
    """The first ``len(out)`` standard normals of numpy's Philox stream keyed
    by (seed, stream), into ``out``."""
    from numpy.random import Generator, Philox     # at the first draw, not at import
    # an array key: a Python list would wrap a seed near 2^64 with a warning
    key = np.array([seed, stream], dtype=np.uint64)
    Generator(Philox(key=key)).standard_normal(out=out)


class LevelStream:
    """A bundle's levels node by node, from T backward, as a backward sweep
    reads them: ``level(i)`` is the (d, M) row of node i.

    A stored bundle's rows are views of its levels.  A drawn bundle's live in
    a window of two rows, node i in row i mod 2: ``level(i)`` first draws
    every node from the lowest one drawn down to i, so a row stays valid
    until the node two below it is drawn.
    """

    def __init__(self, bundle: PathBundle):
        self.bundle, self.window, self.low = bundle, None, bundle.grid.n_points
        if bundle.drawn:
            self.window = np.empty((2, bundle.dim, bundle.n_paths))

    def _draw(self, i: int) -> None:
        """Node i's row from its streams and, below N - 1, node i + 1's row."""
        pts, n = self.bundle.grid.points, self.bundle.grid.n_points
        w = self.window[i % 2]
        if i == 0:
            w.fill(0.0)
            return
        for j, row in enumerate(w):
            _standard_normals(self.bundle.seed, (n - 1 - i) * self.bundle.dim + j, row)
        t = float(pts[i])
        if i == n - 1:
            np.multiply(w, math.sqrt(t), out=w)
        else:
            t_next = float(pts[i + 1])
            np.multiply(w, math.sqrt(t * (t_next - t) / t_next), out=w)
            np.add(self.window[(i + 1) % 2] * (t / t_next), w, out=w)

    def level(self, i: int) -> np.ndarray:
        if self.window is None:
            return self.bundle.levels[:, i, :].T
        for node in range(self.low - 1, i - 1, -1):
            self._draw(node)
        self.low = min(self.low, i)
        return self.window[i % 2]


def _draw_levels(bundle: PathBundle) -> np.ndarray:
    """A drawn bundle's node-major (N, d, M) levels: the rows of a
    ``LevelStream`` walked from T to 0."""
    stream = LevelStream(bundle)
    out = np.empty((bundle.grid.n_points, bundle.dim, bundle.n_paths))
    for i in range(bundle.grid.n_points - 1, -1, -1):
        out[i] = stream.level(i)
    return out


def simulate_paths(grid: TimeGrid, dim: int, n_paths: int, seed: int) -> PathBundle:
    """``n_paths`` independent d-dimensional Brownian paths on the grid.

    Deterministic in ``seed``, which must lie in [0, 2^64).  The bundle
    holds no path array: a read of its ``levels`` draws them, a backward sweep
    streams them one node at a time.  ``MEMORY_CAP_ELEMENTS`` bounds the
    N M d elements of the levels.
    """
    if n_paths < 1 or dim < 1:
        raise ValueError("n_paths and dim must be positive")
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if n_paths * grid.n_points * dim > MEMORY_CAP_ELEMENTS:
        raise ResourceLimit(
            f"bundle of {n_paths}x{grid.n_points}x{dim} exceeds the memory cap"
        )
    return PathBundle(grid, dim, n_paths, None, seed)
