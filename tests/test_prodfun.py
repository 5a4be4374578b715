"""Scenario assignment and production-function calibration."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import edge_blocks, reference_calibrate
from test_netcore import assert_bits_equal, float_items, raw_network

from prodrisk.netcore import FirmRecord, SENTINEL_SECTOR, build_network
from prodrisk.prodfun import (
    ESS_ALL,
    ESS_NONE,
    ESS_PHYSICAL,
    Scenario,
    assign_scenario,
    calibrate,
    evaluate_gl,
)


def mill_net():
    """A flour mill buying wheat (physical) and consulting (service)."""
    firms = [
        FirmRecord("wheat", "0111"),
        FirmRecord("consult", "7022"),
        FirmRecord("mill", "1061"),
        FirmRecord("shop", "4711"),
    ]
    edges = [("wheat", "mill", 40.0), ("consult", "mill", 10.0), ("mill", "shop", 100.0)]
    return build_network(firms, edge_blocks(edges))


class TestAssignment:
    def test_lin_everything_linear(self):
        net = mill_net()
        spec = assign_scenario(net, Scenario.LIN)
        assert np.all(spec.essential_class == ESS_NONE)
        assert not spec.input_is_essential(net.index_of["mill"], "0111")

    def test_leo_everything_essential(self):
        net = mill_net()
        spec = assign_scenario(net, Scenario.LEO)
        assert np.all(spec.essential_class == ESS_ALL)
        assert spec.input_is_essential(net.index_of["shop"], "7022")

    def test_mix_splits_by_buyer_industry(self):
        net = mill_net()
        spec = assign_scenario(net, Scenario.MIX)
        mill = net.index_of["mill"]
        shop = net.index_of["shop"]
        assert spec.essential_class[mill] == ESS_ALL
        assert spec.essential_class[shop] == ESS_NONE
        assert spec.input_is_essential(mill, "7022")
        assert not spec.input_is_essential(shop, "0111")

    def test_gl_splits_by_input_industry(self):
        net = mill_net()
        spec = assign_scenario(net, Scenario.GL)
        mill = net.index_of["mill"]
        assert spec.essential_class[mill] == ESS_PHYSICAL
        assert spec.input_is_essential(mill, "0111")
        assert not spec.input_is_essential(mill, "7022")
        assert not spec.input_is_essential(mill, SENTINEL_SECTOR)

    def test_sentinel_firm_counts_as_service(self):
        firms = [FirmRecord("u", ""), FirmRecord("v", "0111")]
        net = build_network(firms, edge_blocks([("v", "u", 1.0)]))
        for scenario, expected in [(Scenario.MIX, ESS_NONE), (Scenario.GL, ESS_NONE)]:
            spec = assign_scenario(net, scenario)
            assert spec.essential_class[net.index_of["u"]] == expected


class TestCalibration:
    def test_gl_coefficients(self):
        net = mill_net()
        params = calibrate(net, assign_scenario(net, Scenario.GL))
        mill = net.index_of["mill"]
        assert params.x0[mill] == 100.0
        assert params.alpha[mill] == {"0111": 0.4}
        assert params.beta_tilde[mill] == 0.8
        assert params.input_total[mill] == 50.0

    def test_leo_beta_is_one(self):
        net = mill_net()
        params = calibrate(net, assign_scenario(net, Scenario.LEO))
        assert params.beta_tilde[net.index_of["mill"]] == 1.0
        assert set(params.alpha[net.index_of["mill"]]) == {"0111", "7022"}

    def test_lin_beta_is_zero_with_inputs(self):
        net = mill_net()
        params = calibrate(net, assign_scenario(net, Scenario.LIN))
        assert params.beta_tilde[net.index_of["mill"]] == 0.0
        assert params.alpha[net.index_of["mill"]] == {}

    def test_no_input_firm_defaults(self):
        net = mill_net()
        params = calibrate(net, assign_scenario(net, Scenario.GL))
        wheat = net.index_of["wheat"]
        assert params.beta_tilde[wheat] == 1.0
        assert params.alpha[wheat] == {}

    def test_zero_output_firm_keeps_empty_alpha(self):
        firms = [FirmRecord("s", "0111"), FirmRecord("sink", "1061")]
        net = build_network(firms, edge_blocks([("s", "sink", 8.0)]))
        params = calibrate(net, assign_scenario(net, Scenario.LEO))
        sink = net.index_of["sink"]
        assert params.x0[sink] == 0.0
        assert params.alpha[sink] == {}
        assert params.beta_tilde[sink] == 1.0


class TestEvaluation:
    def test_reproduces_baseline_at_observed_inputs(self):
        net = mill_net()
        for scenario in Scenario:
            params = calibrate(net, assign_scenario(net, scenario))
            mill = net.index_of["mill"]
            out = evaluate_gl(params, mill, {"0111": 40.0, "7022": 10.0})
            assert out == pytest.approx(100.0)

    def test_essential_shortage_caps_output(self):
        net = mill_net()
        params = calibrate(net, assign_scenario(net, Scenario.GL))
        mill = net.index_of["mill"]
        assert evaluate_gl(params, mill, {"0111": 20.0, "7022": 10.0}) == pytest.approx(50.0)

    def test_non_essential_loss_scales_linearly(self):
        net = mill_net()
        params = calibrate(net, assign_scenario(net, Scenario.GL))
        mill = net.index_of["mill"]
        assert evaluate_gl(params, mill, {"0111": 40.0, "7022": 0.0}) == pytest.approx(80.0)
        assert evaluate_gl(params, mill, {"0111": 40.0, "7022": 5.0}) == pytest.approx(90.0)

    def test_zero_output_firm_stays_zero(self):
        firms = [FirmRecord("s", "0111"), FirmRecord("sink", "1061")]
        net = build_network(firms, edge_blocks([("s", "sink", 8.0)]))
        params = calibrate(net, assign_scenario(net, Scenario.LEO))
        assert evaluate_gl(params, net.index_of["sink"], {"0111": 8.0}) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(w=st.floats(0.0, 40.0), c=st.floats(0.0, 10.0),
           dw=st.floats(0.0, 5.0), dc=st.floats(0.0, 5.0))
    def test_monotone_in_availability(self, w, c, dw, dc):
        net = mill_net()
        params = calibrate(net, assign_scenario(net, Scenario.GL))
        mill = net.index_of["mill"]
        lo = evaluate_gl(params, mill, {"0111": w, "7022": c})
        hi = evaluate_gl(params, mill, {"0111": w + dw, "7022": c + dc})
        assert hi >= lo - 1e-12


@pytest.mark.filterwarnings("ignore:overflow encountered")  # tiny x0 makes alpha inf
@settings(max_examples=150, deadline=None)
@given(raw_network())
@example(([FirmRecord("s1", "4711"), FirmRecord("s2", "2611"), FirmRecord("s3", "0111"),
           FirmRecord("s4", "2611"), FirmRecord("s5", "2611"), FirmRecord("buyer", "1061")],
          # sectors met out of code order, and sums that depend on their order
          [("s1", "buyer", 0.1), ("s2", "buyer", 0.1), ("s3", "buyer", 0.3),
           ("s4", "buyer", 0.2), ("s5", "buyer", 0.3)]))
def test_calibrate_bit_equal_to_dict_loop(raw):
    """calibrate against the per-firm dictionary loop it replaced, all scenarios."""
    net = build_network(raw[0], edge_blocks(raw[1]))
    for scenario in Scenario:
        spec = assign_scenario(net, scenario)
        params, ref = calibrate(net, spec), reference_calibrate(net, spec)
        for name in ("x0", "beta_tilde", "input_total"):
            assert_bits_equal(getattr(params, name), getattr(ref, name))
        assert [float_items(r) for r in params.alpha] == [float_items(r) for r in ref.alpha]
