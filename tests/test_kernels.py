"""The objective grid scan: exact agreement with the full-cube scan, in O(n^2) memory."""

import tracemalloc

import numpy as np
import pytest

from cointoss import kernels


def reference_grid_scan(resolution):
    """The whole resolution^3 cube in ten arrays, and one flat argmax over it."""
    angles = np.linspace(0.0, np.pi / 2.0, resolution)
    t1, t2, t3 = np.meshgrid(angles, angles, angles, indexing="ij")
    a00 = np.cos(t1)
    s1 = np.sin(t1)
    a01 = s1 * np.cos(t2)
    s12 = s1 * np.sin(t2)
    a10 = s12 * np.cos(t3)
    value = (2.0 * a00 * a00 + 2.0 * a00 * a01 + 2.0 * a00 * a10 + a01 * a01 + a10 * a10) / 4.0
    i1, i2, i3 = np.unravel_index(int(np.argmax(value)), value.shape)
    return float(value[i1, i2, i3]), float(angles[i1]), float(angles[i2]), float(angles[i3])


class TestGridScan:
    @pytest.mark.parametrize("resolution", [20, 37, 100])
    def test_matches_full_cube_reference_in_slab_memory(self, resolution):
        tracemalloc.start()
        try:
            got = kernels.objective_grid_scan(resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == reference_grid_scan(resolution)
        # A handful of n-by-n float64 slabs, never the n^3 cube.
        assert peak < 16 * 8 * resolution**2

    # numpy is the scan's only backend; the id keeps this test's established name.
    @pytest.mark.parametrize("backend", ["numpy"])
    def test_grid_value_below_true_maximum(self, backend):
        value, *_ = kernels.objective_grid_scan(25)
        assert 0.7 < value <= 0.75 + 1e-12

    def test_angles_map_to_unit_sphere(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = rng.uniform(0, np.pi / 2, size=3)
            coeffs = kernels.angles_to_coefficients(*t)
            assert np.all(coeffs >= -1e-15)
            assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-12)
