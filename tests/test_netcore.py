"""Graph construction, filtering, synthesis and fingerprinting."""

import dataclasses
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import edge_blocks, reference_build_network, reference_input_matrix

from prodrisk.cascade import build_impact_matrices, run_cascade
from prodrisk.netcore import (
    SENTINEL_SECTOR,
    FirmRecord,
    NetworkError,
    SyntheticConfig,
    TransactionEvent,
    build_network,
    filter_long_term_links,
    fingerprint,
    generate_synthetic,
    normalize_nace4,
    sector_is_physical,
    _sector_codes,
)
from prodrisk.prodfun import Scenario, assign_scenario


def square_net():
    firms = [
        FirmRecord("a", "0111"), FirmRecord("b", "0111"),
        FirmRecord("c", "4711"), FirmRecord("d", ""),
    ]
    edges = [("a", "c", 3.0), ("b", "c", 1.0), ("c", "d", 2.0), ("d", "a", 5.0)]
    return build_network(firms, edge_blocks(edges))


class TestNormalization:
    def test_sentinel_for_missing(self):
        assert normalize_nace4(None) == SENTINEL_SECTOR
        assert normalize_nace4("") == SENTINEL_SECTOR
        assert normalize_nace4("  ") == SENTINEL_SECTOR
        assert normalize_nace4(SENTINEL_SECTOR) == SENTINEL_SECTOR

    def test_valid_codes_pass_through(self):
        assert normalize_nace4("0111") == "0111"
        assert normalize_nace4(" 9999 ") == "9999"

    @pytest.mark.parametrize("bad", ["111", "01111", "01a1", "ab", "46.21"])
    def test_malformed_codes_rejected(self, bad):
        with pytest.raises(NetworkError):
            normalize_nace4(bad)

    def test_physical_split(self):
        assert sector_is_physical("0111")
        assert sector_is_physical("4500")
        assert not sector_is_physical("4600")
        assert not sector_is_physical("9999")
        assert not sector_is_physical(SENTINEL_SECTOR)


class TestBuildNetwork:
    def test_basic_shape(self):
        net = square_net()
        assert net.n == 4
        assert net.n_edges == 4
        assert float(np.sum(net.w)) == 11.0
        assert net.sectors[net.sector_of[3]] == SENTINEL_SECTOR

    def test_strength_identities(self):
        net = square_net()
        assert net.s_out[net.index_of["a"]] == 3.0
        assert net.s_in[net.index_of["c"]] == 4.0
        assert float(np.sum(net.s_in)) == float(np.sum(net.s_out)) == float(np.sum(net.w))

    def test_parallel_edges_summed(self):
        firms = [FirmRecord("a"), FirmRecord("b")]
        net = build_network(firms, edge_blocks([("a", "b", 1.5), ("a", "b", 2.5)]))
        assert net.n_edges == 1
        assert net.w[0] == 4.0

    def test_self_loops_dropped_and_counted(self):
        firms = [FirmRecord("a"), FirmRecord("b")]
        net = build_network(firms, edge_blocks([("a", "a", 9.0), ("a", "b", 1.0)]))
        assert net.n_edges == 1
        assert net.self_loops_dropped == 1

    def test_zero_weight_edges_dropped(self):
        firms = [FirmRecord("a"), FirmRecord("b")]
        net = build_network(firms, edge_blocks([("a", "b", 0.0)]))
        assert net.n_edges == 0

    def test_duplicate_firm_rejected(self):
        with pytest.raises(NetworkError, match="duplicate"):
            build_network([FirmRecord("a"), FirmRecord("a")], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(NetworkError, match="unknown"):
            build_network([FirmRecord("a")], edge_blocks([("a", "zz", 1.0)]))

    @pytest.mark.parametrize("w", [-1.0, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, w):
        with pytest.raises(NetworkError, match="invalid weight"):
            build_network([FirmRecord("a"), FirmRecord("b")], edge_blocks([("a", "b", w)]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0])
    @pytest.mark.parametrize("field", ["revenue", "material_cost"])
    def test_bad_income_figure_rejected(self, field, value):
        firms = [FirmRecord("a"), FirmRecord("b", **{field: value})]
        with pytest.raises(NetworkError, match=f"'b' has {field}"):
            build_network(firms, edge_blocks([("a", "b", 1.0)]))

    def test_nan_figure_message(self):
        firms = [FirmRecord("a"), FirmRecord("b", revenue=float("nan"))]
        with pytest.raises(NetworkError) as err:
            build_network(firms, [])
        assert str(err.value) == "firm 'b' has revenue nan: expected None or finite and >= 0"

    def test_records_and_plain_tuples_build_the_same_columns(self):
        records = [FirmRecord("a", "0111", revenue=12.5), FirmRecord("b", " 4711 ", None, 0.0),
                   FirmRecord("c", "", 1e16, None), FirmRecord("d")]
        edges = [("a", "b", 1.0), ("c", "d", 2.0), ("d", "a", 0.5)]
        nets = [build_network(firms, edge_blocks(edges))
                for firms in (records, [tuple(f) for f in records])]
        for net in nets:
            assert net.firm_ids == ("a", "b", "c", "d")
            assert net.sectors == ("0111", "4711", SENTINEL_SECTOR)
            assert np.array_equal(np.isnan(net.revenue), [False, True, False, True])
            assert np.array_equal(np.isnan(net.material_cost), [True, False, True, True])
        one, two = nets
        for name in ("revenue", "material_cost", "sector_of"):
            assert_bits_equal(getattr(one, name), getattr(two, name))
        assert fingerprint(one) == fingerprint(two)

    def test_missing_and_zero_income_figures_accepted(self):
        firms = [FirmRecord("a", revenue=None, material_cost=0.0),
                 FirmRecord("b", revenue=0.0, material_cost=None)]
        net = build_network(firms, edge_blocks([("a", "b", 1.0)]))
        assert net.material_cost[0] == 0.0 and net.revenue[1] == 0.0

    def test_edgeless_network_has_float_strengths_and_no_cascade(self):
        net = build_network([FirmRecord("a", "0111"), FirmRecord("b", "7022")], [])
        assert net.s_in.dtype == np.float64 and net.s_out.dtype == np.float64
        psi = np.array([0.3, 1.0])
        for scenario in Scenario:
            m = build_impact_matrices(net, assign_scenario(net, scenario))
            assert m.n_groups == 0 and m.down_op.shape == (0, 2)  # no slot at all
            res = run_cascade(net, m, None, psi)
            assert res.converged and np.array_equal(res.h_final, psi)

    def test_arrays_frozen(self):
        net = square_net()
        with pytest.raises(ValueError):
            net.w[0] = 99.0
        with pytest.raises(ValueError):
            net.s_out[0] = 99.0

    def test_sectors_sorted_and_indexed(self):
        net = square_net()
        assert net.sectors == ("0111", "4711", SENTINEL_SECTOR)
        assert np.flatnonzero(net.sector_of == net.sectors.index("0111")).tolist() == [0, 1]
        assert [net.sectors[k] for k in net.sector_of] == ["0111", "0111", "4711", SENTINEL_SECTOR]


class TestLongTermFilter:
    def test_span_and_count_rules(self):
        d0 = date(2022, 3, 1)
        events = [
            TransactionEvent("s", "b", d0, 1.0),
            TransactionEvent("s", "b", d0 + timedelta(days=90), 2.0),
            TransactionEvent("s", "c", d0, 1.0),
            TransactionEvent("s", "c", d0 + timedelta(days=89), 2.0),
            TransactionEvent("x", "y", d0, 4.0),
        ]
        assert filter_long_term_links(events) == [("s", "b", 3.0)]

    def test_self_pairs_ignored(self):
        d0 = date(2022, 1, 1)
        events = [TransactionEvent("s", "s", d0, 1.0),
                  TransactionEvent("s", "s", d0 + timedelta(days=365), 1.0)]
        assert filter_long_term_links(events) == []

    def test_bad_amount_rejected(self):
        with pytest.raises(NetworkError, match="amount"):
            filter_long_term_links([TransactionEvent("s", "b", date(2022, 1, 1), 0.0)])

    def test_output_sorted(self):
        d0 = date(2022, 1, 1)
        events = []
        for sid, bid in [("z", "a"), ("a", "z"), ("m", "m2")]:
            events.append(TransactionEvent(sid, bid, d0, 1.0))
            events.append(TransactionEvent(sid, bid, d0 + timedelta(days=200), 1.0))
        kept = filter_long_term_links(events)
        assert [k[:2] for k in kept] == [("a", "z"), ("m", "m2"), ("z", "a")]


class TestDerivedViews:
    def test_input_matrix_rows(self):
        """The oracle's input matrix, which its calibration reads."""
        net = square_net()
        rows = reference_input_matrix(net)
        assert rows[net.index_of["c"]] == {"0111": 4.0}
        assert rows[net.index_of["a"]] == {SENTINEL_SECTOR: 5.0}
        for i in range(net.n):
            assert sum(rows[i].values()) == pytest.approx(net.s_in[i])


class TestSyntheticGenerator:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_firms=0).validate()
        with pytest.raises(ValueError):
            SyntheticConfig(n_firms=5, mean_out_degree=0).validate()
        with pytest.raises(ValueError):
            SyntheticConfig(n_firms=5, coverage=0.0).validate()
        with pytest.raises(ValueError):
            SyntheticConfig(n_firms=5, coverage=1.5).validate()
        with pytest.raises(ValueError):
            SyntheticConfig(n_firms=5, share_physical_sectors=-0.1).validate()

    def test_deterministic_per_seed(self):
        cfg = SyntheticConfig(n_firms=60)
        f1, e1 = generate_synthetic(cfg, seed=5)
        f2, e2 = generate_synthetic(cfg, seed=5)
        f3, e3 = generate_synthetic(cfg, seed=6)
        assert f1 == f2 and e1 == e2
        assert e1 != e3

    def test_edge_count_tracks_mean_degree(self):
        cfg = SyntheticConfig(n_firms=400, mean_out_degree=6.0)
        _, edges = generate_synthetic(cfg, seed=0)
        assert abs(len(edges) - 2400) <= 240

    def test_coverage_sets_income_figures(self):
        cfg = SyntheticConfig(n_firms=50, coverage=0.5)
        firms, edges = generate_synthetic(cfg, seed=3)
        net = build_network(firms, edge_blocks(edges))
        assert net.revenue == pytest.approx(net.s_out / 0.5)
        assert net.material_cost == pytest.approx(net.s_in / 0.5)

    @pytest.mark.parametrize("field, value", [
        ("mean_out_degree", math.inf), ("weight_mu", math.nan), ("weight_sigma", math.inf)])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticConfig(n_firms=5, **{field: value}).validate()

    def test_overflowing_weights_rejected(self):
        with pytest.raises(ValueError, match="weight_mu"):
            generate_synthetic(SyntheticConfig(n_firms=20, weight_mu=1000.0), seed=0)

    @pytest.mark.parametrize("config", [SyntheticConfig(n_firms=1),
                                        SyntheticConfig(n_firms=20, weight_mu=-1000.0)])
    def test_zero_total_weight_rejected(self, config):
        with pytest.raises(ValueError, match="total weight is zero"):
            generate_synthetic(config, seed=0)

    @pytest.mark.parametrize("n_sectors, share", [(4050, 1.0), (4860, 0.0)])
    def test_sector_count_bounded_by_four_digit_codes(self, n_sectors, share):
        cfg = SyntheticConfig(n_firms=200, n_sectors=n_sectors, share_physical_sectors=share)
        codes = _sector_codes(n_sectors, cfg.physical_sectors)
        assert len(set(codes)) == n_sectors
        assert all(normalize_nace4(c) == c and sector_is_physical(c) == (share == 1.0)
                   for c in codes)
        firms, edges = generate_synthetic(cfg, seed=0)
        build_network(firms, edge_blocks(edges))
        with pytest.raises(ValueError, match="n_sectors"):
            dataclasses.replace(cfg, n_sectors=n_sectors + 1).validate()

    def test_output_builds_cleanly(self):
        cfg = SyntheticConfig(n_firms=80, n_sectors=12)
        firms, edges = generate_synthetic(cfg, seed=1)
        net = build_network(firms, edge_blocks(edges))
        assert net.n == 80
        assert net.self_loops_dropped == 0
        assert len(net.sectors) <= 12


class TestFingerprint:
    def test_stable_and_sensitive(self):
        net1 = square_net()
        net2 = square_net()
        assert fingerprint(net1) == fingerprint(net2)
        firms = [FirmRecord(fid, net1.sectors[k]) for fid, k in zip(net1.firm_ids, net1.sector_of)]
        edges = [("a", "c", 3.0), ("b", "c", 1.0), ("c", "d", 2.0), ("d", "a", 5.5)]
        assert fingerprint(build_network(firms, edge_blocks(edges))) != fingerprint(net1)

    def test_pinned_digest(self):
        """The text hashed is fixed: this digest must not change."""
        firms = [FirmRecord("a", "0111", revenue=12.5, material_cost=None),
                 FirmRecord("b", "0111", revenue=None, material_cost=0.0),
                 FirmRecord("c", "4711", revenue=1e16, material_cost=3.25),
                 FirmRecord("d", "")]
        edges = [("a", "c", 0.1), ("b", "c", 1.0), ("c", "d", 2e-7), ("d", "a", 5.0),
                 ("a", "c", 0.2)]
        assert fingerprint(build_network(firms, edge_blocks(edges))) == "568c1f14b886d638"

    def test_metadata_included(self):
        firms1 = [FirmRecord("a", "0111"), FirmRecord("b", "0111", revenue=7.0)]
        firms2 = [FirmRecord("a", "0111"), FirmRecord("b", "0111", revenue=8.0)]
        n1 = build_network(firms1, edge_blocks([("a", "b", 1.0)]))
        n2 = build_network(firms2, edge_blocks([("a", "b", 1.0)]))
        assert fingerprint(n1) != fingerprint(n2)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_strength_conservation_property(data):
    """Total in-strength, out-strength and edge weight always agree."""
    n = data.draw(st.integers(2, 10))
    ids = [f"f{k}" for k in range(n)]
    edges = data.draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                  st.floats(0.1, 1e6, allow_nan=False)),
        max_size=25))
    net = build_network([FirmRecord(i) for i in ids],
                        edge_blocks([e for e in edges if e[0] != e[1]]))
    assert float(np.sum(net.s_in)) == pytest.approx(float(np.sum(net.w)))
    assert float(np.sum(net.s_out)) == pytest.approx(float(np.sum(net.w)))


CODES = ["0111", "2611", "4711", "9609", "", SENTINEL_SECTOR]
# repeated values and magnitudes far apart make sums depend on their order
WEIGHTS = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 1e16, 5e-324]),
                    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False))
BAD_WEIGHTS = st.one_of(WEIGHTS, st.sampled_from([-1.0, float("nan"), float("inf")]))


@st.composite
def raw_network(draw, weights=WEIGHTS, extra_ids=(), codes=CODES, duplicates=False):
    """Firms and an edge list with parallel edges, self-loops and zero weights.

    extra_ids are edge endpoints without a firm; with duplicates, the first
    firm may appear twice.
    """
    n = draw(st.integers(1, 5))
    ids = [f"f{k}" for k in range(n)]
    firms = [FirmRecord(fid, draw(st.sampled_from(codes)),
                        draw(st.one_of(st.none(), st.floats(0.0, 1e6))), None)
             for fid in ids]
    if duplicates and draw(st.booleans()):
        firms.append(firms[0])
    ends = st.sampled_from(ids + list(extra_ids))
    edges = draw(st.lists(st.tuples(ends, ends, weights), max_size=40))
    return firms, edges


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(build, firms, edges):
    try:
        return build(firms, edges)
    except NetworkError as exc:
        return str(exc)


CUTS = st.lists(st.integers(0, 40), max_size=6)  # block boundaries, clipped to the edge count


def cut_blocks(edges, cuts):
    return iter(edge_blocks(edges, [c % (len(edges) + 1) for c in cuts]))


class TestColumnarBuild:
    """build_network against the per-edge dictionary build it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(raw_network(), CUTS)
    @example(([FirmRecord("a")], []), [])
    @example(([FirmRecord("a"), FirmRecord("b")],  # the sum depends on the order
              [("a", "b", 0.1), ("a", "b", 0.2), ("a", "b", 0.3), ("b", "b", 1.0)]), [2, 2])
    def test_bit_equal_to_dict_build(self, raw, cuts):
        firms, edges = raw
        ref = reference_build_network(firms, edges)
        net = build_network(firms, cut_blocks(edges, cuts))
        assert net.firm_ids == ref.firm_ids and net.sectors == ref.sectors
        for name in ("revenue", "material_cost", "sup", "buy", "w", "s_in", "s_out", "sector_of"):
            assert_bits_equal(getattr(net, name), getattr(ref, name))
        assert net.self_loops_dropped == ref.self_loops_dropped

    @settings(max_examples=300, deadline=None)
    @given(raw_network(weights=BAD_WEIGHTS, extra_ids=("ghost", "spook"),
                       codes=CODES + ["12a4"], duplicates=True), CUTS)
    @example(([FirmRecord("a"), FirmRecord("b")],
              [("a", "b", 1.0), ("b", "a", float("nan")), ("a", "ghost", 1.0)]), [])
    @example(([FirmRecord("a"), FirmRecord("b")],
              [("a", "b", 1.0), ("spook", "ghost", 1.0), ("b", "a", -1.0)]), [1])
    @example(([FirmRecord("a"), FirmRecord("b")],  # a buyer unknown before a supplier
              [("a", "ghost", 1.0), ("spook", "b", 1.0)]), [])
    def test_first_bad_input_wins(self, raw, cuts):
        """The same NetworkError as the per-edge build, for the first bad edge."""
        firms, edges = raw
        ref = outcome(reference_build_network, firms, edges)
        got = outcome(build_network, firms, cut_blocks(edges, cuts))
        if isinstance(ref, str):
            assert got == ref
        else:
            assert not isinstance(got, str)
            assert_bits_equal(got.w, ref.w)
