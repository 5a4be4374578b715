"""Statistics over risk vectors: profiles, tail fits, comparisons, experiments."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from reference import edge_blocks, reference_sector_shock_experiment

from prodrisk.netcore import (DataError, FirmRecord, SyntheticConfig, build_network,
                              generate_synthetic)
from prodrisk.prodfun import Scenario, assign_scenario
from prodrisk.cascade import build_impact_matrices
from prodrisk.esri import EsriVector
from prodrisk.analysis import (
    DEFAULT_THRESHOLDS,
    SectorShockReport,
    count_above_thresholds,
    detect_plateau,
    fit_powerlaw_mle,
    rank_profile,
    sector_shock_experiment,
    year_over_year,
)


def vec(ids, values):
    """Wrap raw values in a result vector with placeholder metadata."""
    values = np.asarray(values, dtype=float)
    n = len(ids)
    return EsriVector(
        firm_ids=tuple(ids),
        values=values,
        T=np.ones(n, dtype=np.int64),
        converged=np.ones(n, dtype=bool),
        network_fingerprint="fixture",
    )


class TestRankProfile:
    def test_sorted_descending_with_id_ties(self):
        profile = rank_profile(vec(["c", "b", "a"], [0.3, 0.5, 0.3]))
        assert profile.firm_ids == ("b", "a", "c")
        assert profile.values.tolist() == [0.5, 0.3, 0.3]
        assert profile.ranks.tolist() == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_profile(vec([], []))


class TestPlateau:
    def test_prefix_within_tolerance(self):
        profile = rank_profile(vec(list("abcdef"), [1.0, 0.98, 0.96, 0.94, 0.5, 0.1]))
        plateau = detect_plateau(profile, rel_tol=0.05)
        assert plateau.size == 3
        assert plateau.level == pytest.approx((1.0 + 0.98 + 0.96) / 3, abs=1e-12)

    def test_whole_profile_can_qualify(self):
        profile = rank_profile(vec(["a", "b", "c"], [0.25, 0.25, 0.25]))
        plateau = detect_plateau(profile)
        assert plateau.size == 3 and plateau.level == 0.25

    def test_top_firm_always_inside(self):
        profile = rank_profile(vec(["a", "b"], [1.0, 0.01]))
        assert detect_plateau(profile).size == 1

    def test_rel_tol_guard(self):
        profile = rank_profile(vec(["a"], [1.0]))
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                detect_plateau(profile, rel_tol=bad)


class TestThresholdCounts:
    def test_strictly_above(self):
        counts = count_above_thresholds([0.5, 0.41, 0.2, 0.09], thresholds=(0.41, 0.1, 0.05))
        # 0.41 does not clear its own threshold
        assert counts == (1, 3, 4)

    def test_default_ladder(self):
        counts = count_above_thresholds(np.zeros(4))
        assert len(counts) == len(DEFAULT_THRESHOLDS)
        assert counts == (0,) * 7

    def test_ladder_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            count_above_thresholds([1.0], thresholds=(0.1, 0.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_thresholds_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            count_above_thresholds([0.5], thresholds=(bad, 0.1))


class TestPowerlawFit:
    def test_hand_computed_exponent(self):
        fit = fit_powerlaw_mle([0.5, 2.0, 3.0, 50.0], x_min=1.0, x_max=10.0)
        assert fit.n_used == 2
        assert fit.coverage == 0.5
        assert fit.alpha_hat == pytest.approx(1.0 + 2.0 / (math.log(2.0) + math.log(3.0)), abs=1e-12)

    def test_recovers_known_exponent(self):
        rng = np.random.default_rng(7)
        x = (1.0 - rng.random(200_000)) ** -1.0  # density exponent 2
        fit = fit_powerlaw_mle(x, x_min=1.0, x_max=float(x.max()))
        assert abs(fit.alpha_hat - 2.0) < 0.02

    def test_window_guards(self):
        with pytest.raises(ValueError):
            fit_powerlaw_mle([1.0, 2.0], x_min=0.0, x_max=1.0)
        with pytest.raises(ValueError):
            fit_powerlaw_mle([1.0, 2.0], x_min=2.0, x_max=1.0)
        with pytest.raises(ValueError):
            fit_powerlaw_mle([1.0, 2.0], x_min=1.0, x_max=math.inf)

    def test_data_guards(self):
        with pytest.raises(DataError, match="need at least 2"):
            fit_powerlaw_mle([0.5, 5.0], x_min=1.0, x_max=2.0)
        with pytest.raises(DataError, match="diverges"):
            fit_powerlaw_mle([1.0, 1.0, 1.0], x_min=1.0, x_max=2.0)


class TestYearOverYear:
    def test_matches_scipy_on_shared_firms(self):
        rng = np.random.default_rng(3)
        ids = [f"f{i}" for i in range(40)]
        va = rng.random(40) + 0.1
        vb = 0.7 * va + rng.random(40) * 0.2
        a = vec(ids, va)
        # b carries extra firms and a different order; only the overlap counts
        shuffled = list(range(40))
        rng.shuffle(shuffled)
        b = vec([ids[j] for j in shuffled] + ["extra"],
                np.append(vb[shuffled], 9.9))
        cmp = year_over_year(a, b)
        assert cmp.n_matched == 40
        assert cmp.n_log_excluded == 0
        assert cmp.pearson_raw == pytest.approx(scipy.stats.pearsonr(va, vb).statistic, abs=1e-12)
        assert cmp.pearson_log == pytest.approx(
            scipy.stats.pearsonr(np.log(va), np.log(vb)).statistic, abs=1e-12)

    def test_zeros_dropped_from_log_variant(self):
        a = vec(["a", "b", "c", "d"], [0.0, 1.0, 2.0, 3.0])
        b = vec(["a", "b", "c", "d"], [5.0, 2.0, 4.0, 0.0])
        cmp = year_over_year(a, b)
        assert cmp.n_matched == 4
        assert cmp.n_log_excluded == 2
        assert cmp.pearson_log == pytest.approx(
            scipy.stats.pearsonr(np.log([1.0, 2.0]), np.log([2.0, 4.0])).statistic, abs=1e-12)

    def test_degenerate_sides_give_nan(self):
        cmp = year_over_year(vec(["a", "b", "c"], [1.0, 1.0, 1.0]),
                             vec(["a", "b", "c"], [1.0, 2.0, 3.0]))
        assert math.isnan(cmp.pearson_raw)

    def test_small_overlap_rejected(self):
        with pytest.raises(DataError, match="need at least 3"):
            year_over_year(vec(["a", "b"], [1.0, 2.0]), vec(["a", "b"], [1.0, 2.0]))


def shock_net():
    firms = [FirmRecord("P", "1001"), FirmRecord("A", "2611"), FirmRecord("B", "2611"),
             FirmRecord("C1", "5001"), FirmRecord("C2", "6001")]
    edges = [("P", "A", 20.0), ("A", "C1", 50.0), ("B", "C2", 30.0)]
    return build_network(firms, edge_blocks(edges))


def shock_fixture(scenario=Scenario.LEO):
    net = shock_net()
    spec = assign_scenario(net, scenario)
    return net, build_impact_matrices(net, spec)


class TestSectorShock:
    def test_reference_only_run(self):
        net, m = shock_fixture()
        report = sector_shock_experiment(net, m, "2611", 0.2, [])
        assert report.labels == ()
        assert report.received.shape == (0, len(net.sectors))
        assert report.rel_dev.shape == (0, len(net.sectors))
        assert report.deviation_correlation is None
        assert report.converged
        # sectors come back ordered by reference impact, ties by code
        key = list(zip(-report.received_ref, report.sectors))
        assert key == sorted(key)
        hit = report.received_ref[report.sectors.index("2611")]
        assert hit >= 0.2 - 1e-12

    def test_size_equivalent_scenario_accepted(self):
        net, m = shock_fixture()
        # sector 2611 carries 100 of combined strength, so 20 must go;
        # firm A holds 70 of it, hence psi = 1 - 20/70
        report = sector_shock_experiment(
            net, m, "2611", 0.2, [{"A": 1.0 - 20.0 / 70.0}], labels=["a-only"])
        assert report.labels == ("a-only",)
        assert report.deviation_correlation.shape == (1, 1)
        assert report.received.shape == (1, len(net.sectors))
        assert np.all(report.rel_dev[0] >= 0.0)

    def test_default_labels(self):
        net, m = shock_fixture()
        report = sector_shock_experiment(
            net, m, "2611", 0.2, [{"A": 1.0 - 20.0 / 70.0}])
        assert report.labels == ("scenario_1",)

    def test_unknown_sector(self):
        net, m = shock_fixture()
        with pytest.raises(DataError, match="no firms"):
            sector_shock_experiment(net, m, "9999", 0.2, [])

    def test_magnitude_guard(self):
        net, m = shock_fixture()
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(ValueError, match="magnitude"):
                sector_shock_experiment(net, m, "2611", bad, [])

    def test_scenario_guards(self):
        net, m = shock_fixture()
        with pytest.raises(ValueError, match="unknown firm"):
            sector_shock_experiment(net, m, "2611", 0.2, [{"nope": 0.5}])
        with pytest.raises(ValueError, match="must lie in"):
            sector_shock_experiment(net, m, "2611", 0.2, [{"A": 1.5}])
        with pytest.raises(ValueError, match="one label per scenario"):
            sector_shock_experiment(net, m, "2611", 0.2, [{"A": 0.5}], labels=[])

    def test_wrong_size_rejected(self):
        net, m = shock_fixture()
        with pytest.raises(ValueError, match="removes strength"):
            sector_shock_experiment(net, m, "2611", 0.2, [{"A": 0.9}])


def assert_same_report(report, ref):
    """Every field of two SectorShockReports, arrays bit for bit."""
    for field in dataclasses.fields(SectorShockReport):
        a, b = getattr(report, field.name), getattr(ref, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def both_experiments(net, m, sector, magnitude, scenarios):
    """The package's report and the reference's, checked field by field."""
    report = sector_shock_experiment(net, m, sector, magnitude, scenarios)
    assert_same_report(report, reference_sector_shock_experiment(
        net, m, sector, magnitude, scenarios))
    return report


class TestSectorShockOracle:
    """One shock matrix gives the reports of the earlier per-run path."""

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_untouched_sectors_and_no_scenario(self, scenario):
        # D -> E lies apart from sector 2611's component, so only a shock on D reaches it
        net = build_network(
            [FirmRecord("P", "1001"), FirmRecord("A", "2611"), FirmRecord("B", "2611"),
             FirmRecord("C1", "5001"), FirmRecord("C2", "6001"),
             FirmRecord("D", "7001"), FirmRecord("E", "8001")],
            edge_blocks([("P", "A", 20.0), ("A", "C1", 50.0), ("B", "C2", 30.0),
                         ("D", "E", 100.0)]))
        m = build_impact_matrices(net, assign_scenario(net, scenario))
        report = both_experiments(net, m, "2611", 0.2, [])
        assert report.received.shape == (0, len(net.sectors))
        # sector 2611 carries 100 of combined strength: 20 must go, from A or from D
        report = both_experiments(net, m, "2611", 0.2,
                                  [{"D": 0.8}, {"A": 1.0 - 20.0 / 70.0}, {"B": 1.0 - 20.0 / 30.0}])
        assert np.isinf(report.rel_dev[0]).any()
        assert report.deviation_correlation.shape == (3, 3)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_synthetic_network(self, scenario):
        firms, edges = generate_synthetic(
            SyntheticConfig(n_firms=300, n_sectors=12, mean_out_degree=5.0, coverage=0.8), seed=3)
        net = build_network(firms, edge_blocks(edges))
        m = build_impact_matrices(net, assign_scenario(net, scenario))
        sector_id = int(np.bincount(net.sector_of).argmax())
        s_total = net.s_in + net.s_out
        required = 0.1 * float(s_total[net.sector_of == sector_id].sum())
        big = [i for i in np.argsort(-s_total, kind="stable") if net.sector_of[i] != sector_id][:3]
        assert s_total[big].min() >= required
        scenarios = [{net.firm_ids[i]: 1.0 - required / s_total[i]} for i in big]
        both_experiments(net, m, net.sectors[sector_id], 0.1, [])
        report = both_experiments(net, m, net.sectors[sector_id], 0.1, scenarios)
        assert report.received.shape == (3, len(net.sectors))
