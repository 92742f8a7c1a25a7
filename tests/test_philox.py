"""Differential tests of the vectorised Philox4x64-10 kernel in ``bsdelab.paths``.

The oracle is the original per-path generator: one numpy ``Philox`` bit
generator per path, keyed by (seed, path index).
"""

import numpy as np
import pytest
from numpy.random import Philox

from bsdelab import paths

MASK64 = 0xFFFFFFFFFFFFFFFF


def reference_raw(seed: int, path_index: int, count: int) -> np.ndarray:
    bg = Philox(key=np.array([seed & MASK64, path_index], dtype=np.uint64))
    return bg.random_raw(count)


def reference_uniforms(seed: int, path_index: int, count: int) -> np.ndarray:
    raw = reference_raw(seed, path_index, count)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


PATH_INDICES = [0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63 + 1, MASK64]


class TestRawDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 2, 2**64 - 1])
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 20, 241])
    def test_bit_identical_to_numpy_philox(self, seed, count):
        got = paths._philox_raw(seed, np.array(PATH_INDICES, dtype=np.uint64), count)
        want = np.stack([reference_raw(seed, m, count) for m in PATH_INDICES])
        assert got.dtype == np.uint64
        assert got.shape == (len(PATH_INDICES), count)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("first_counter", [1, 2, 5])
    @pytest.mark.parametrize("count", [1, 4, 7])
    def test_first_counter_starts_at_its_word(self, first_counter, count):
        seed = 2**64 - 3
        got = paths._philox_raw(seed, np.array(PATH_INDICES, dtype=np.uint64), count,
                                first_counter=first_counter)
        start = 4 * first_counter
        want = np.stack([reference_raw(seed, m, start + count)[start:] for m in PATH_INDICES])
        assert np.array_equal(got, want)
