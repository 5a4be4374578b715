"""Graph construction, filtering, synthesis and aggregation."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodrisk.netcore import (
    SENTINEL_SECTOR,
    FirmRecord,
    NetworkError,
    SyntheticConfig,
    TransactionEvent,
    aggregate_to_sectors,
    build_network,
    filter_long_term_links,
    fingerprint,
    generate_synthetic,
    input_matrix,
    market_shares,
    normalize_nace4,
    sector_is_physical,
    strengths,
)


def square_net():
    firms = [
        FirmRecord("a", "0111"), FirmRecord("b", "0111"),
        FirmRecord("c", "4711"), FirmRecord("d", ""),
    ]
    edges = [("a", "c", 3.0), ("b", "c", 1.0), ("c", "d", 2.0), ("d", "a", 5.0)]
    return build_network(firms, edges)


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
        assert net.total_weight == 11.0
        assert net.firms[3].nace4 == SENTINEL_SECTOR

    def test_strength_identities(self):
        net = square_net()
        s_in, s_out, s_tot = strengths(net)
        assert s_out[net.index_of["a"]] == 3.0
        assert s_in[net.index_of["c"]] == 4.0
        assert np.all(s_tot == s_in + s_out)
        assert float(np.sum(s_in)) == float(np.sum(s_out)) == net.total_weight

    def test_parallel_edges_summed(self):
        firms = [FirmRecord("a"), FirmRecord("b")]
        net = build_network(firms, [("a", "b", 1.5), ("a", "b", 2.5)])
        assert net.n_edges == 1
        assert net.w[0] == 4.0

    def test_self_loops_dropped_and_counted(self):
        firms = [FirmRecord("a"), FirmRecord("b")]
        net = build_network(firms, [("a", "a", 9.0), ("a", "b", 1.0)])
        assert net.n_edges == 1
        assert net.self_loops_dropped == 1

    def test_zero_weight_edges_dropped(self):
        firms = [FirmRecord("a"), FirmRecord("b")]
        net = build_network(firms, [("a", "b", 0.0)])
        assert net.n_edges == 0

    def test_duplicate_firm_rejected(self):
        with pytest.raises(NetworkError, match="duplicate"):
            build_network([FirmRecord("a"), FirmRecord("a")], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(NetworkError, match="unknown"):
            build_network([FirmRecord("a")], [("a", "zz", 1.0)])

    @pytest.mark.parametrize("w", [-1.0, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, w):
        with pytest.raises(NetworkError, match="invalid weight"):
            build_network([FirmRecord("a"), FirmRecord("b")], [("a", "b", w)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0])
    @pytest.mark.parametrize("field", ["revenue", "material_cost"])
    def test_bad_income_figure_rejected(self, field, value):
        firms = [FirmRecord("a"), FirmRecord("b", **{field: value})]
        with pytest.raises(NetworkError, match=f"'b' has {field}"):
            build_network(firms, [("a", "b", 1.0)])

    def test_missing_and_zero_income_figures_accepted(self):
        firms = [FirmRecord("a", revenue=None, material_cost=0.0),
                 FirmRecord("b", revenue=0.0, material_cost=None)]
        net = build_network(firms, [("a", "b", 1.0)])
        assert net.firms[0].material_cost == 0.0 and net.firms[1].revenue == 0.0

    def test_arrays_frozen(self):
        net = square_net()
        with pytest.raises(ValueError):
            net.w[0] = 99.0
        with pytest.raises(ValueError):
            net.s_out[0] = 99.0

    def test_sectors_sorted_and_indexed(self):
        net = square_net()
        assert net.sectors == ("0111", "4711", SENTINEL_SECTOR)
        assert net.sector_index["0111"] == (0, 1)
        assert [net.sectors[k] for k in net.sector_of] == [f.nace4 for f in net.firms]


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
        net = square_net()
        rows = input_matrix(net)
        assert rows[net.index_of["c"]] == {"0111": 4.0}
        assert rows[net.index_of["a"]] == {SENTINEL_SECTOR: 5.0}
        for i in range(net.n):
            assert sum(rows[i].values()) == pytest.approx(net.s_in[i])

    def test_market_shares(self):
        net = square_net()
        shares = market_shares(net)
        assert shares[net.index_of["a"]] == 0.75
        assert shares[net.index_of["b"]] == 0.25
        assert shares[net.index_of["c"]] == 1.0

    def test_market_share_zero_sector(self):
        firms = [FirmRecord("a", "0111"), FirmRecord("b", "0111"), FirmRecord("c", "2000")]
        net = build_network(firms, [("c", "a", 1.0)])
        shares = market_shares(net)
        assert shares[net.index_of["a"]] == 0.0
        assert shares[net.index_of["b"]] == 0.0
        assert shares[net.index_of["c"]] == 1.0

    def test_aggregation_conserves_weight(self):
        net = square_net()
        agg = aggregate_to_sectors(net)
        assert agg.total_weight == net.total_weight
        i = agg.sectors.index("0111")
        j = agg.sectors.index("4711")
        assert agg.weights[i, j] == 4.0
        assert agg.weights[j, i] == 0.0


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
        net = build_network(firms, edges)
        for i, f in enumerate(net.firms):
            assert f.revenue == pytest.approx(net.s_out[i] / 0.5)
            assert f.material_cost == pytest.approx(net.s_in[i] / 0.5)

    def test_output_builds_cleanly(self):
        cfg = SyntheticConfig(n_firms=80, n_sectors=12)
        firms, edges = generate_synthetic(cfg, seed=1)
        net = build_network(firms, edges)
        assert net.n == 80
        assert net.self_loops_dropped == 0
        assert len(net.sectors) <= 12


class TestFingerprint:
    def test_stable_and_sensitive(self):
        net1 = square_net()
        net2 = square_net()
        assert fingerprint(net1) == fingerprint(net2)
        firms = [FirmRecord(f.firm_id, f.nace4) for f in net1.firms]
        edges = [("a", "c", 3.0), ("b", "c", 1.0), ("c", "d", 2.0), ("d", "a", 5.5)]
        assert fingerprint(build_network(firms, edges)) != fingerprint(net1)

    def test_metadata_included(self):
        firms1 = [FirmRecord("a", "0111"), FirmRecord("b", "0111", revenue=7.0)]
        firms2 = [FirmRecord("a", "0111"), FirmRecord("b", "0111", revenue=8.0)]
        n1 = build_network(firms1, [("a", "b", 1.0)])
        n2 = build_network(firms2, [("a", "b", 1.0)])
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
                        [e for e in edges if e[0] != e[1]])
    assert float(np.sum(net.s_in)) == pytest.approx(net.total_weight)
    assert float(np.sum(net.s_out)) == pytest.approx(net.total_weight)
    agg = aggregate_to_sectors(net)
    assert agg.total_weight == pytest.approx(net.total_weight)
