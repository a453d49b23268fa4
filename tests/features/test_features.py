"""Tests for crafted feature maps and G-net features."""

import numpy as np
import pytest

from repro.features import (compute_gnets, gcell_feature_stack,
                            net_density_maps, rudy_map)
from repro.features.gcell import (GCELL_FEATURE_NAMES, pin_density_map,
                                  terminal_mask)
from repro.features.gnet import GNET_FEATURE_NAMES


@pytest.fixture(scope="module")
def gnets(placed_design_module, grid_module):
    return compute_gnets(placed_design_module, grid_module, max_fraction=None)


@pytest.fixture(scope="module")
def placed_design_module(request):
    from repro.circuit import DesignSpec, generate_design
    from repro.placement import place
    d = generate_design(DesignSpec(name="feat-t", seed=41, num_movable=150,
                                   num_terminals=12, num_macros=2,
                                   die_size=32.0))
    place(d)
    return d


@pytest.fixture(scope="module")
def grid_module(placed_design_module):
    from repro.routing import RoutingGrid
    return RoutingGrid(placed_design_module, nx=16, ny=16)


class TestGNets:
    def test_feature_columns(self, gnets):
        assert gnets.features.shape[1] == len(GNET_FEATURE_NAMES)

    def test_area_is_product_of_spans(self, gnets):
        span_v = gnets.features[:, 0]
        span_h = gnets.features[:, 1]
        area = gnets.features[:, 3]
        assert np.allclose(area, span_h * span_v)

    def test_npin_matches_design(self, gnets, placed_design_module):
        deg = placed_design_module.net_degree()
        assert np.allclose(gnets.features[:, 2], deg[gnets.net_ids])

    def test_bounding_boxes_inside_grid(self, gnets, grid_module):
        assert gnets.gx0.min() >= 0
        assert gnets.gx1.max() < grid_module.nx
        assert np.all(gnets.gx0 <= gnets.gx1)
        assert np.all(gnets.gy0 <= gnets.gy1)

    def test_large_net_filter(self, placed_design_module, grid_module):
        unfiltered = compute_gnets(placed_design_module, grid_module,
                                   max_fraction=None)
        filtered = compute_gnets(placed_design_module, grid_module,
                                 max_fraction=0.05)
        assert filtered.num_gnets <= unfiltered.num_gnets
        limit = 0.05 * grid_module.nx * grid_module.ny
        assert np.all(filtered.features[:, 3] <= limit)

    def test_covered_cells_count(self, gnets, grid_module):
        for i in range(min(10, gnets.num_gnets)):
            cells = gnets.covered_cells(i, grid_module.ny)
            assert len(cells) == int(gnets.features[i, 3])

    def test_min_degree_filter(self, placed_design_module, grid_module):
        gnets = compute_gnets(placed_design_module, grid_module,
                              min_degree=3)
        assert np.all(gnets.features[:, 2] >= 3)


class TestVectorisedAgainstLoopReference:
    """The difference-array map builders must reproduce the original
    per-G-net loops: bit-exactly on dyadic weights (where float addition
    is associative), and to accumulated-rounding precision (≤ 1e-12)
    on organic designs."""

    @pytest.fixture()
    def dyadic_gnets(self):
        """G-nets whose spans are powers of two, so every deposited
        weight (1/span, npin·(span+span)/area) is dyadic and summation
        order cannot change the result."""
        from repro.features.gnet import GNetData
        rng = np.random.default_rng(7)
        n = 64
        span_choices = np.array([1, 2, 4, 8])
        span_h = rng.choice(span_choices, size=n)
        span_v = rng.choice(span_choices, size=n)
        gx0 = rng.integers(0, 16 - span_h + 1)
        gy0 = rng.integers(0, 16 - span_v + 1)
        npin = rng.integers(2, 9, size=n).astype(float)
        feats = np.stack([span_v.astype(float), span_h.astype(float),
                          npin, (span_h * span_v).astype(float)], axis=-1)
        return GNetData(net_ids=np.arange(n),
                        gx0=gx0, gy0=gy0,
                        gx1=gx0 + span_h - 1, gy1=gy0 + span_v - 1,
                        features=feats)

    def test_net_density_exact_on_dyadic_spans(self, dyadic_gnets):
        from repro.features.gcell import _net_density_maps_reference
        h, v = net_density_maps(dyadic_gnets, 16, 16)
        h_ref, v_ref = _net_density_maps_reference(dyadic_gnets, 16, 16)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(v, v_ref)

    def test_rudy_exact_on_dyadic_spans(self, dyadic_gnets):
        from repro.features.gcell import _rudy_map_reference
        assert np.array_equal(rudy_map(dyadic_gnets, 16, 16),
                              _rudy_map_reference(dyadic_gnets, 16, 16))

    def test_net_density_matches_loop_on_organic_design(self, gnets,
                                                        grid_module):
        from repro.features.gcell import _net_density_maps_reference
        h, v = net_density_maps(gnets, grid_module.nx, grid_module.ny)
        h_ref, v_ref = _net_density_maps_reference(gnets, grid_module.nx,
                                                   grid_module.ny)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-12)

    def test_rudy_matches_loop_on_organic_design(self, gnets, grid_module):
        from repro.features.gcell import _rudy_map_reference
        np.testing.assert_allclose(
            rudy_map(gnets, grid_module.nx, grid_module.ny),
            _rudy_map_reference(gnets, grid_module.nx, grid_module.ny),
            rtol=0, atol=1e-12)

    def test_terminal_mask_exact(self, placed_design_module, grid_module):
        from repro.features.gcell import _terminal_mask_reference
        assert np.array_equal(
            terminal_mask(placed_design_module, grid_module),
            _terminal_mask_reference(placed_design_module, grid_module))

    def test_empty_gnets(self):
        from repro.features.gnet import GNetData
        empty = GNetData(net_ids=np.zeros(0, dtype=np.int64),
                         gx0=np.zeros(0, dtype=np.int64),
                         gy0=np.zeros(0, dtype=np.int64),
                         gx1=np.zeros(0, dtype=np.int64),
                         gy1=np.zeros(0, dtype=np.int64),
                         features=np.zeros((0, 4)))
        h, v = net_density_maps(empty, 8, 8)
        assert h.shape == (8, 8) and not h.any() and not v.any()
        assert not rudy_map(empty, 8, 8).any()


class TestGCellFeatures:
    def test_net_density_mass(self, gnets, grid_module):
        """Each net contributes exactly span_h to total H density."""
        h, v = net_density_maps(gnets, grid_module.nx, grid_module.ny)
        expected_h = gnets.features[:, 1].sum()   # sum of span_h
        expected_v = gnets.features[:, 0].sum()   # sum of span_v
        assert h.sum() == pytest.approx(expected_h)
        assert v.sum() == pytest.approx(expected_v)

    def test_net_density_nonnegative(self, gnets, grid_module):
        h, v = net_density_maps(gnets, grid_module.nx, grid_module.ny)
        assert (h >= 0).all() and (v >= 0).all()

    def test_pin_density_total(self, placed_design_module, grid_module):
        pins = pin_density_map(placed_design_module, grid_module)
        assert pins.sum() == pytest.approx(placed_design_module.num_pins)

    def test_terminal_mask_binary(self, placed_design_module, grid_module):
        mask = terminal_mask(placed_design_module, grid_module)
        assert set(np.unique(mask)).issubset({0.0, 1.0})
        assert mask.sum() > 0  # pads and macros exist

    def test_rudy_mass(self, gnets, grid_module):
        rudy = rudy_map(gnets, grid_module.nx, grid_module.ny)
        expected = (gnets.features[:, 2]
                    * (gnets.features[:, 1] + gnets.features[:, 0])).sum()
        assert rudy.sum() == pytest.approx(expected)

    def test_stack_shape_and_order(self, placed_design_module, grid_module,
                                   gnets):
        stack = gcell_feature_stack(placed_design_module, grid_module, gnets)
        assert stack.shape == (16, 16, len(GCELL_FEATURE_NAMES))
        h, v = net_density_maps(gnets, 16, 16)
        assert np.allclose(stack[:, :, 0], h)
        assert np.allclose(stack[:, :, 1], v)
