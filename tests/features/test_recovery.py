"""Feature-recovery tests (paper §3.2, Figure 2).

The paper's claim: crafted features are exactly one-step message passing
on the LH-graph's G-net → G-cell relation.  These tests verify the
identities to machine precision on a real placed design:

* horizontal net density = H @ (1 / span_v),
* vertical net density   = H @ (1 / span_h),
* RUDY                   = H @ (npin · (span_h + span_v) / area),
* expected pin density   = H @ (npin / area), whose total mass equals the
  number of pins of the kept nets.
"""

import numpy as np
import pytest

from repro.circuit import DesignSpec, generate_design
from repro.features import compute_gnets, net_density_maps, rudy_map
from repro.graph import build_hypergraph_incidence
from repro.nn import Tensor, spmm
from repro.placement import place
from repro.routing import RoutingGrid


@pytest.fixture(scope="module")
def setup():
    d = generate_design(DesignSpec(name="recov", seed=51, num_movable=150,
                                   die_size=32.0))
    place(d)
    grid = RoutingGrid(d, nx=16, ny=16)
    gnets = compute_gnets(d, grid, max_fraction=None)
    H = build_hypergraph_incidence(gnets, 16, 16)
    return d, grid, gnets, H


def test_horizontal_net_density_recovered(setup):
    _, grid, gnets, H = setup
    span_v = gnets.features[:, 0:1]
    recovered = spmm(H, Tensor(1.0 / span_v)).data.reshape(16, 16)
    reference, _ = net_density_maps(gnets, 16, 16)
    assert np.allclose(recovered, reference, atol=1e-12)


def test_vertical_net_density_recovered(setup):
    _, grid, gnets, H = setup
    span_h = gnets.features[:, 1:2]
    recovered = spmm(H, Tensor(1.0 / span_h)).data.reshape(16, 16)
    _, reference = net_density_maps(gnets, 16, 16)
    assert np.allclose(recovered, reference, atol=1e-12)


def test_rudy_recovered(setup):
    _, grid, gnets, H = setup
    span_v = gnets.features[:, 0:1]
    span_h = gnets.features[:, 1:2]
    npin = gnets.features[:, 2:3]
    area = gnets.features[:, 3:4]
    payload = npin * (span_h + span_v) / area
    recovered = spmm(H, Tensor(payload)).data.reshape(16, 16)
    reference = rudy_map(gnets, 16, 16)
    assert np.allclose(recovered, reference, atol=1e-12)


def test_expected_pin_density_mass(setup):
    _, grid, gnets, H = setup
    npin = gnets.features[:, 2:3]
    area = gnets.features[:, 3:4]
    expected = spmm(H, Tensor(npin / area)).data
    assert expected.sum() == pytest.approx(float(npin.sum()))


def test_expected_pin_density_correlates_with_actual(setup):
    design, grid, gnets, H = setup
    from repro.features.gcell import pin_density_map
    npin = gnets.features[:, 2:3]
    area = gnets.features[:, 3:4]
    expected = spmm(H, Tensor(npin / area)).data.reshape(-1)
    actual = pin_density_map(design, grid).reshape(-1)
    corr = np.corrcoef(expected, actual)[0, 1]
    assert corr > 0.4  # expectation tracks reality on a placed design
