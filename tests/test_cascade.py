"""Impact matrices, shock validation and the propagation engine."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (dense_net, edge_blocks, reference_build_impact_matrices, reference_cascade,
                       reference_rescale_for_coverage, replaceability)
from test_acceptance import _micro_fixture

from prodrisk.netcore import FirmRecord, SyntheticConfig, build_network, generate_synthetic
from prodrisk.prodfun import Scenario, assign_scenario, calibrate
from prodrisk import cascade
from prodrisk.cascade import (
    _group_max,
    _iterate,
    _RowSubset,
    _Workspace,
    build_impact_matrices,
    rescale_for_coverage,
    run_cascade,
)


def mill_net(revenue=None, material_cost=None):
    firms = [
        FirmRecord("wheat", "0111"),
        FirmRecord("consult", "7022"),
        FirmRecord("mill", "1061", revenue=revenue, material_cost=material_cost),
        FirmRecord("shop", "4711"),
    ]
    edges = [("wheat", "mill", 40.0), ("consult", "mill", 10.0), ("mill", "shop", 100.0)]
    return build_network(firms, edge_blocks(edges))


def prepared(net, scenario):
    spec = assign_scenario(net, scenario)
    params = calibrate(net, spec)
    return params, rescale_for_coverage(build_impact_matrices(net, spec), net)


def both_builds(net, scenario):
    """The package's impact matrices and the reference build, which keeps the group keys."""
    spec = assign_scenario(net, scenario)
    return build_impact_matrices(net, spec), reference_build_impact_matrices(net, spec)


def leo_matrices(scenario=Scenario.LEO):
    """150 firms in 8 sectors: under leo, head folds and a padded tail."""
    firms, edges = generate_synthetic(
        SyntheticConfig(n_firms=150, n_sectors=8, mean_out_degree=6.0), seed=5)
    return both_builds(build_network(firms, edge_blocks(edges)), scenario)


def entry(matrices, ref, sup, buy):
    """Downstream coefficient of one edge and whether it is essential; ref gives the groups."""
    for g in np.flatnonzero(ref.group_buyer == buy):
        row = matrices.down_op[[matrices.slots.rows[g]]]
        if sup in row.indices:
            return row[0, sup], bool(ref.group_sector[g] >= 0)
    raise AssertionError("edge not found")


def without_figures(firms):
    """The same firms with no revenue or material cost reported."""
    return [FirmRecord(f.firm_id, f.nace4) for f in firms]


class TestImpactMatrices:
    def test_gl_edge_coefficients(self):
        net = mill_net()
        m, ref = both_builds(net, Scenario.GL)
        wheat, consult = net.index_of["wheat"], net.index_of["consult"]
        mill, shop = net.index_of["mill"], net.index_of["shop"]

        lam, ess = entry(m, ref, wheat, mill)
        assert ess and lam == 1.0       # sole supplier within its sector
        lam, ess = entry(m, ref, consult, mill)
        assert not ess and lam == 10.0 / 50.0
        lam, ess = entry(m, ref, mill, shop)
        assert not ess and lam == 1.0   # service buyer pools everything

    def test_constraint_groups(self):
        net = mill_net()
        m, ref = both_builds(net, Scenario.GL)
        mill = net.index_of["mill"]
        mill_groups = {int(g) for g in np.flatnonzero(ref.group_buyer == mill)}
        assert len(mill_groups) == 2    # one essential sector plus the pool
        assert m.slots.counts[m.slots.rank[mill]] == 2
        sectors = {int(ref.group_sector[g]) for g in mill_groups}
        assert -1 in sectors            # pooled group marker
        assert len(ref.group_buyer) == m.n_groups

    def test_group_slots_hold_each_buyers_own_groups(self):
        m, ref = leo_matrices()
        slots = m.slots
        assert len(slots.sizes) > 1 and slots.tail_slots > 0  # head folds and a padded tail
        # one row per group, each row used by at most one group
        assert len(slots.rows) == m.n_groups
        assert len(np.unique(slots.rows)) == m.n_groups
        row_buyer = np.full(m.down_op.shape[0], -1)
        row_buyer[slots.rows] = ref.group_buyer
        start = 0
        for size in list(slots.sizes) + [slots.tail_rows] * slots.tail_slots:
            part = row_buyer[start:start + size]
            # row p of every slot belongs to buyer p, so maxima stay per buyer
            filled = part >= 0
            assert np.array_equal(part[filled], slots.buyers[:size][filled])
            start += size
        assert start == m.down_op.shape[0]
        # pad rows (no group) store nothing
        pads = np.flatnonzero(row_buyer < 0)
        assert len(pads) > 0
        assert np.all(np.diff(m.down_op.indptr)[pads] == 0)
        assert np.array_equal(np.sort(slots.buyers), ref.group_buyer[m.seg_starts])

    def test_group_slots_count_each_buyers_groups_and_inputs(self, monkeypatch):
        m, ref = leo_matrices()
        slots = m.slots
        present = ref.group_buyer[m.seg_starts]
        counts = np.diff(m.seg_starts, append=m.n_groups)
        assert np.array_equal(slots.counts, counts[np.searchsorted(present, slots.buyers)])
        in_deg = np.bincount(m.up_op.indices, minlength=m.n)
        assert np.array_equal(slots.in_deg, in_deg[slots.buyers])
        assert np.array_equal(slots.rank[slots.buyers], np.arange(len(slots.buyers)))
        assert np.all(np.delete(slots.rank, slots.buyers) == -1)
        # one index type, int32 at this size, so no gather casts and csr_row_index
        # never sees a mixed pair; the diagonal sector_op of a no-substitution run too
        iterate, seen = cascade._iterate, []

        def spy(mat, *args, **kwargs):
            seen.append(mat)
            return iterate(mat, *args, **kwargs)
        monkeypatch.setattr(cascade, "_iterate", spy)
        run_cascade(None, m, None, np.ones(m.n), substitution=False)
        subset = _RowSubset(m, _Workspace(m, 16))
        ops = (m.down_op, m.up_op, m.sector_op, seen[0].sector_op)
        arrays = [a for op in ops for a in (op.indices, op.indptr)] + [
            slots.rank, slots.rows, subset.ptr, subset.idx, subset.rows, subset.ids]
        assert seen[0].sector_op.shape == (m.n, m.n)
        assert {a.dtype for a in arrays} == {np.dtype(np.int32)}

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("width", [1, 16])
    def test_group_max_matches_reduceat(self, scenario, width):
        m, ref = leo_matrices(scenario)
        slots = m.slots
        rng = np.random.default_rng(width)
        y = rng.random((m.down_op.shape[0], width))
        # what down_op leaves in its empty pad rows
        y[np.diff(m.down_op.indptr) == 0] = 0.0
        # one row per present buyer, in ascending buyer order
        expect = np.maximum.reduceat(y[slots.rows], m.seg_starts)
        got = _group_max(y, slots)
        assert np.array_equal(got, expect[np.searchsorted(ref.group_buyer[m.seg_starts], slots.buyers)])

    def test_upstream_shares_and_residual(self):
        net = mill_net()
        m = build_impact_matrices(net, assign_scenario(net, Scenario.GL))
        assert np.all(m.up_op.data == 1.0)   # every supplier has a single buyer
        resid = {net.firm_ids[i]: m.u_resid[i] for i in range(net.n)}
        assert resid == {"wheat": 0.0, "consult": 0.0, "mill": 0.0, "shop": 1.0}

    def test_share_sums_bounded(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=40), seed=2)
        net = build_network(firms, edge_blocks(edges))
        for scenario in Scenario:
            m, ref = both_builds(net, scenario)
            for g, total in enumerate(m.down_op.sum(axis=1)[m.slots.rows]):
                assert total <= 1.0 + 1e-9
                if ref.group_sector[g] >= 0:
                    assert total == pytest.approx(1.0)
            per_sup = m.up_op @ np.ones(net.n)
            assert np.all(per_sup + m.u_resid <= 1.0 + 1e-9)

    def test_rescale_shrinks_receiver_side(self):
        net = mill_net(revenue=200.0, material_cost=100.0)
        scaled, ref = both_builds(net, Scenario.GL)
        plain = build_impact_matrices(mill_net(), assign_scenario(net, Scenario.GL))
        mill, shop = net.index_of["mill"], net.index_of["shop"]
        wheat = net.index_of["wheat"]

        # mill reports twice the observed sales: upstream impact halves
        assert plain.up_op[mill, shop] == 1.0 and scaled.up_op[mill, shop] == 0.5
        assert scaled.u_resid[mill] == 0.5
        # mill reports twice the observed inputs: downstream impact halves
        assert entry(plain, ref, wheat, mill) == (1.0, True)
        assert entry(scaled, ref, wheat, mill) == (0.5, True)

    def test_rescale_never_amplifies(self):
        net = mill_net(revenue=80.0, material_cost=20.0)  # below observed figures
        scaled = build_impact_matrices(net, assign_scenario(net, Scenario.GL))
        plain = build_impact_matrices(mill_net(), assign_scenario(net, Scenario.GL))
        assert np.all(scaled.down_op.data == plain.down_op.data)
        assert np.all(scaled.up_op.data == plain.up_op.data)

    def test_rescale_ignores_missing_figures(self):
        for net in (mill_net(), mill_net(revenue=0.0, material_cost=0.0)):
            m, ref = both_builds(net, Scenario.GL)
            assert m.down_op.data.tobytes() == ref.down_op.data.tobytes()
            assert m.up_op.data.tobytes() == ref.up_op.data.tobytes()
            assert m.u_resid.tobytes() == ref.u_resid.tobytes()

    def test_rescale_for_coverage_returns_its_argument(self):
        net = mill_net(revenue=200.0, material_cost=100.0)
        m = build_impact_matrices(net, assign_scenario(net, Scenario.GL))
        assert rescale_for_coverage(m, net) is m

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # the reference's scalar loop
    def test_rescale_bit_equal_to_firm_loop(self):
        """Column factors against the per-firm loop, on missing, zero and tiny figures."""
        firms, edges = generate_synthetic(
            SyntheticConfig(n_firms=300, n_sectors=12, coverage=0.8), seed=7)
        observed = build_network(firms, edge_blocks(edges))
        rng = np.random.default_rng(7)

        def figure(f, s):
            pick = rng.integers(7)
            return (f, None, 0.0, 5e-324, 1e-300, 0.5 * s, 3.0 * s)[pick]

        firms = [FirmRecord(f.firm_id, f.nace4, figure(f.revenue, observed.s_out[i]),
                            figure(f.material_cost, observed.s_in[i]))
                 for i, f in enumerate(firms)]
        net = build_network(firms, edge_blocks(edges))
        for scenario in Scenario:
            spec = assign_scenario(net, scenario)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = build_impact_matrices(net, spec)
            plain = reference_build_impact_matrices(net, spec)
            want = reference_rescale_for_coverage(plain, firms)
            for name in ("up_op", "down_op"):
                assert getattr(got, name).data.tobytes() == getattr(want, name).data.tobytes()
            assert got.u_resid.tobytes() == want.u_resid.tobytes()
            assert not np.array_equal(got.up_op.data, plain.up_op.data)


class TestExogenousShock:
    def test_validation(self):
        net = mill_net()
        params, m = prepared(net, Scenario.GL)
        for bad in (np.array([0.5, 1.2]), np.array([-0.1]), np.array([np.nan, 1.0, 1.0])):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                run_cascade(net, m, params, bad)
        with pytest.raises(ValueError, match="1-d"):
            run_cascade(net, m, params, np.ones((2, 2)))

    def test_run_does_not_touch_callers_array(self):
        net = mill_net()
        params, m = prepared(net, Scenario.GL)
        psi = np.ones(net.n)
        psi[0] = 0.0
        run_cascade(net, m, params, psi, record_trace=True)
        assert psi[0] == 0.0 and psi.flags.writeable
        psi[0] = 1.0  # stays writable for reuse


class TestReplaceability:
    def test_worked_example(self):
        firms = [FirmRecord("S", "2611"), FirmRecord("Z", "2611"),
                 FirmRecord("X", "2611"), FirmRecord("B", "1071"),
                 FirmRecord("D", "9999")]
        edges = [("S", "B", 10.0), ("Z", "B", 10.0), ("X", "D", 82.0)]
        net = build_network(firms, edge_blocks(edges))
        h = np.ones(net.n)
        h[net.index_of["S"]] = 0.8
        sigma = replaceability(h, net)
        assert sigma[net.index_of["S"]] == pytest.approx(0.1, abs=1e-12)

    def test_dead_sector_gives_one(self):
        firms = [FirmRecord("a", "0111"), FirmRecord("b", "4711")]
        net = build_network(firms, edge_blocks([("a", "b", 3.0)]))
        sigma = replaceability(np.array([0.0, 1.0]), net)
        assert sigma[net.index_of["a"]] == 1.0

    def test_capped_at_one(self):
        firms = [FirmRecord("a", "0111"), FirmRecord("b", "0111"),
                 FirmRecord("c", "4711")]
        net = build_network(firms, edge_blocks([("a", "c", 6.0), ("b", "c", 4.0)]))
        sigma = replaceability(np.array([1.0, 0.1, 1.0]), net)
        assert sigma[net.index_of["a"]] == pytest.approx(6.0 / 6.4)
        assert sigma[net.index_of["b"]] == pytest.approx(4.0 / 6.4)
        assert np.all(sigma <= 1.0)


class TestEngine:
    def test_no_shock_is_an_exact_fixed_point(self):
        for net in (mill_net(), mill_net(revenue=300.0, material_cost=120.0)):
            for scenario in Scenario:
                params, m = prepared(net, scenario)
                res = run_cascade(net, m, params, np.ones(net.n))
                assert res.T == 1 and res.converged
                assert np.all(res.h_final == 1.0)

    def test_no_shock_exact_at_scale_with_low_coverage(self):
        firms, edges = generate_synthetic(
            SyntheticConfig(n_firms=200, coverage=0.35), seed=11)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.GL)
        res = run_cascade(net, m, params, np.ones(net.n))
        assert np.all(res.h_final == 1.0) and res.T == 1

    def test_cap_binds_every_iteration(self):
        net = mill_net()
        params, m = prepared(net, Scenario.GL)
        psi = np.ones(net.n)
        psi[net.index_of["mill"]] = 0.3
        res = run_cascade(net, m, params, psi, epsilon=1e-10, max_iter=200)
        assert res.h_final[net.index_of["mill"]] <= 0.3
        assert res.converged

    def test_trace_sigma_consistent_with_replaceability(self):
        net = mill_net()
        params, m = prepared(net, Scenario.LEO)
        psi = np.ones(net.n)
        psi[net.index_of["wheat"]] = 0.2
        res = run_cascade(net, m, params, psi, epsilon=1e-6, max_iter=50,
                          record_trace=True)
        for prev, nxt in zip(res.trace, res.trace[1:]):
            assert np.array_equal(replaceability(prev.h_d, net), nxt.sigma)

    def test_trace_pi_tilde_is_the_clipped_downstream_product(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=80, n_sectors=6), seed=7)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.LEO)
        psi = np.ones(net.n)
        psi[int(np.argmax(net.s_out))] = 0.0
        res = run_cascade(net, m, params, psi, epsilon=1e-6, max_iter=50, record_trace=True)
        assert len(res.trace) > 2
        for prev, nxt in zip(res.trace, res.trace[1:]):
            q = nxt.sigma * (1.0 - prev.h_d)
            assert np.array_equal(nxt.pi_tilde,
                                  np.clip(1.0 - (m.down_op @ q)[m.slots.rows], 0.0, 1.0))
            # each buyer's level is the smallest availability over its groups
            buyers = np.sort(m.slots.buyers)
            hd = np.minimum.reduceat(nxt.pi_tilde, m.seg_starts)
            assert np.array_equal(nxt.h_d[buyers], np.minimum(hd, psi[buyers]))

    def test_reused_workspace_allocates_no_state_sized_array(self):
        """Blocks run in one workspace; no iteration makes a new (rows, width) array."""
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=2000, n_sectors=8), seed=11)
        net = build_network(firms, edge_blocks(edges))
        _, m = prepared(net, Scenario.LEO)
        width = 16
        cols = np.arange(width)
        caps = (cols, cols, np.zeros(width))
        fresh_d, fresh_u, fresh_T, _ = _iterate(m, caps, width, 1e-2, 1000)
        ws = _Workspace(m, width)
        _iterate(m, (cols[:5], cols[:5], np.zeros(5)), 5, 1e-2, 1000, ws=ws)
        tracemalloc.start()
        try:
            h_d, h_u, T, _ = _iterate(m, caps, width, 1e-2, 1000, ws=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.max() > 3
        assert peak < net.n * width * 8
        # nothing of the earlier, narrower block leaks into this one
        assert np.array_equal(T, fresh_T)
        assert np.array_equal(h_d, fresh_d) and np.array_equal(h_u, fresh_u)

    def test_downstream_collapse_needs_essentiality(self):
        net = mill_net()
        psi = np.ones(net.n)
        psi[net.index_of["wheat"]] = 0.0

        params, m = prepared(net, Scenario.LEO)
        res = run_cascade(net, m, params, psi, epsilon=1e-4, max_iter=100)
        assert res.h_final[net.index_of["mill"]] == 0.0

        params, m = prepared(net, Scenario.LIN)
        res = run_cascade(net, m, params, psi, epsilon=1e-4, max_iter=100)
        assert res.h_final[net.index_of["mill"]] == pytest.approx(0.2)

    def test_upstream_demand_loss(self):
        net = mill_net()
        params, m = prepared(net, Scenario.GL)
        psi = np.ones(net.n)
        psi[net.index_of["shop"]] = 0.4
        res = run_cascade(net, m, params, psi, epsilon=1e-6, max_iter=100)
        # wheat -> mill -> shop: the demand cut walks up the chain untouched
        assert res.h_u_final[net.index_of["mill"]] == pytest.approx(0.4)
        assert res.h_u_final[net.index_of["wheat"]] == pytest.approx(0.4)
        assert res.h_d_final[net.index_of["wheat"]] == 1.0

    def test_non_convergence_reported(self):
        net = mill_net()
        params, m = prepared(net, Scenario.LEO)
        psi = np.ones(net.n)
        psi[net.index_of["wheat"]] = 0.5
        res = run_cascade(net, m, params, psi, epsilon=1e-12, max_iter=2)
        assert not res.converged and res.T == 2

    def test_guards(self):
        net = mill_net()
        params, m = prepared(net, Scenario.GL)
        good = np.ones(net.n)
        with pytest.raises(ValueError, match="epsilon"):
            run_cascade(net, m, params, good, epsilon=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            run_cascade(net, m, params, good, max_iter=0)
        with pytest.raises(ValueError, match="length"):
            run_cascade(net, m, params, np.ones(net.n + 1))
        empty = build_network([], [])
        p2, m2 = prepared(empty, Scenario.GL)
        with pytest.raises(ValueError, match="empty"):
            run_cascade(empty, m2, p2, np.ones(0))

    def test_sigma_fixed_disables_substitution(self):
        firms = [FirmRecord("S", "2611"), FirmRecord("Z", "2611"),
                 FirmRecord("X", "2611"), FirmRecord("B", "1071"),
                 FirmRecord("D", "9999")]
        edges = [("S", "B", 10.0), ("Z", "B", 10.0), ("X", "D", 82.0)]
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.LEO)
        psi = np.ones(net.n)
        psi[net.index_of["S"]] = 0.0
        damped = run_cascade(net, m, params, psi, epsilon=1e-9, max_iter=200)
        blunt = run_cascade(net, m, params, psi, epsilon=1e-9, max_iter=200,
                            substitution=False)
        b = net.index_of["B"]
        assert blunt.h_final[b] < damped.h_final[b]
        assert blunt.h_final[b] == pytest.approx(0.5)
        # with the failed firm at a tenth of surviving sector output the
        # damped loss is sigma * share * drop = (10/92) * 0.5
        assert damped.h_final[b] == pytest.approx(1.0 - 10.0 / 92.0 * 0.5)

    def test_no_substitution_matches_dense_oracle(self):
        """Every iteration without substitution is the oracle's at sigma = 1."""
        for seed in range(30):
            firms, edges = _micro_fixture(seed)
            net = build_network(firms, edge_blocks(edges))
            if float(np.sum(net.s_out)) == 0:
                continue
            dn = dense_net(net)
            rng = np.random.default_rng(2000 + seed)
            psi = rng.uniform(0.0, 1.0, size=net.n)
            psi[int(rng.integers(0, net.n))] = 0.0
            for scenario in Scenario:
                params, m = prepared(net, scenario)
                res = run_cascade(net, m, params, psi, epsilon=1e-3, max_iter=50,
                                  record_trace=True, substitution=False)
                ref = reference_cascade(dn, scenario.value, psi, epsilon=1e-3, max_iter=50,
                                        sigma_fixed=np.ones(net.n))
                assert (res.T, res.converged) == (ref["T"], ref["converged"])
                assert len(res.trace) == len(ref["h_d"])
                for t, state in enumerate(res.trace):
                    for name in ("h_d", "h_u"):
                        assert np.max(np.abs(getattr(state, name) - ref[name][t])) <= 1e-9
                    assert np.array_equal(state.sigma, ref["sigma"][t])

    def test_results_are_frozen(self):
        net = mill_net()
        params, m = prepared(net, Scenario.GL)
        res = run_cascade(net, m, params, np.ones(net.n), record_trace=True)
        with pytest.raises(ValueError):
            res.h_final[0] = 0.5
        with pytest.raises(ValueError):
            res.trace[0].h_d[0] = 0.5


@pytest.fixture
def every_step_subset(monkeypatch):
    """Cost constants under which every iteration recomputes only the changed rows.

    Returns a list that receives one entry per row-subset step that ran.
    """
    for name in ("LOAD_COST", "GATHER_COST", "STEP_COST"):
        monkeypatch.setattr(cascade, name, 0)
    ran = []
    step = _RowSubset.step

    def counted(self, *args):
        dec = step(self, *args)
        ran.append(dec is not None)
        return dec

    monkeypatch.setattr(_RowSubset, "step", counted)
    return ran


def subset_net():
    firms, edges = generate_synthetic(
        SyntheticConfig(n_firms=300, n_sectors=10, mean_out_degree=6.0, coverage=0.7), seed=13)
    return build_network(firms, edge_blocks(edges))


def subset_shocks(n):
    """Single-firm, multi-firm and partial caps, each with and without substitution."""
    rng = np.random.default_rng(13)
    shocks = []
    for firm in (0, 57, 131, 299):
        psi = np.ones(n)
        psi[firm] = 0.0
        shocks.append(psi)
    psi = np.ones(n)
    psi[rng.choice(n, 6, replace=False)] = 0.0
    shocks.append(psi)
    psi = np.ones(n)
    psi[rng.choice(n, 6, replace=False)] = 0.3
    psi[rng.choice(n, 2, replace=False)] = 0.0
    shocks.append(psi)
    return [(psi, sub) for psi in shocks for sub in (True, False)]


class TestRowSubset:
    """Recomputing only the rows whose inputs changed leaves every bit as it is."""

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-7])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_matches_all_rows_bit_for_bit(self, every_step_subset, scenario, epsilon):
        net = subset_net()
        params, m = prepared(net, scenario)
        for psi, substitution in subset_shocks(net.n):
            sub = run_cascade(net, m, params, psi, epsilon=epsilon, substitution=substitution)
            full = run_cascade(net, m, params, psi, epsilon=epsilon, substitution=substitution,
                               record_trace=True)  # every row, every iteration
            assert sub.h_d_final.tobytes() == full.h_d_final.tobytes()
            assert sub.h_u_final.tobytes() == full.h_u_final.tobytes()
            assert (sub.T, sub.converged) == (full.T, full.converged)
            # without substitution every firm is its own sector, whose sigma is 1.0
            assert substitution or all(np.all(state.sigma == 1.0) for state in full.trace)
        assert sum(every_step_subset) > 20

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_default_cost_rule_matches_all_rows(self, scenario):
        net = subset_net()
        params, m = prepared(net, scenario)
        for psi, substitution in subset_shocks(net.n):
            sub = run_cascade(net, m, params, psi, substitution=substitution)
            full = run_cascade(net, m, params, psi, substitution=substitution, record_trace=True)
            assert sub.h_d_final.tobytes() == full.h_d_final.tobytes()
            assert sub.h_u_final.tobytes() == full.h_u_final.tobytes()
            assert (sub.T, sub.converged) == (full.T, full.converged)

    def test_declined_steps_fit_their_buffers(self, every_step_subset, monkeypatch):
        """A step copies out the up_op rows of every moved q before its counts can decline it.

        Under a budget far below up_op's nonzeros, those rows must still fit.
        """
        net = subset_net()
        params, m = prepared(net, Scenario.GL)
        monkeypatch.setattr(cascade, "STEP_COST", m.down_op.nnz + m.up_op.nnz - 60)
        assert cascade._subset_budget(m, 1) == 60 < m.up_op.nnz
        rng = np.random.default_rng(1)
        for _ in range(5):
            psi = np.ones(net.n)
            psi[rng.choice(net.n, net.n // 2, replace=False)] = 0.5
            sub = run_cascade(net, m, params, psi)
            full = run_cascade(net, m, params, psi, record_trace=True)
            assert sub.h_d_final.tobytes() == full.h_d_final.tobytes()
            assert sub.h_u_final.tobytes() == full.h_u_final.tobytes()
            assert (sub.T, sub.converged) == (full.T, full.converged)
        assert every_step_subset.count(False) >= 5

    @pytest.mark.parametrize("max_iter", [1000, 3])
    @pytest.mark.parametrize("scenario", [Scenario.GL, Scenario.LEO])
    def test_block_columns_match_all_rows(self, every_step_subset, scenario, max_iter):
        """Columns retire, ride along and are compacted while rows are skipped."""
        net = subset_net()
        params, m = prepared(net, scenario)
        ws = _Workspace(m, 16)
        for start in (0, 144, 288):
            firms = np.arange(start, min(start + 16, net.n))
            h_d, h_u, T, conv = _iterate(m, (firms, firms - start, np.zeros(len(firms))),
                                         len(firms), 1e-4, max_iter, ws=ws)
            for j, firm in enumerate(firms):
                psi = np.ones(net.n)
                psi[firm] = 0.0
                full = run_cascade(net, m, params, psi, epsilon=1e-4, max_iter=max_iter,
                                   record_trace=True)
                assert h_d[j].tobytes() == full.h_d_final.tobytes()
                assert h_u[j].tobytes() == full.h_u_final.tobytes()
                assert (T[j], conv[j]) == (full.T, full.converged)
        assert sum(every_step_subset) > 5


@st.composite
def coverage_network(draw):
    """A small network with weights and income figures far apart in magnitude."""
    n = draw(st.integers(2, 8))
    ids = [f"f{k}" for k in range(n)]
    figure = st.one_of(st.none(), st.just(0.0),
                       st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False))
    firms = [FirmRecord(fid, draw(st.sampled_from(["0111", "2611", "4711", "9609"])),
                        draw(figure), draw(figure)) for fid in ids]
    weight = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1.0, 1e16, 5e-324]),
                       st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False))
    ends = st.sampled_from(ids)
    edges = draw(st.lists(st.tuples(ends, ends, weight), min_size=1, max_size=30))
    return firms, edges


@settings(max_examples=200, deadline=None)
@given(coverage_network())
def test_unshocked_step_is_bitwise_stationary(raw):
    """One iteration from all-ones, with and without coverage, leaves every row at 1.0.

    The upstream row of a supplier is clip(s + u_resid, 0, 1), where s is its
    observed share and u_resid = clip(1 - s, 0, 1) comes from the same matvec;
    the row-subset iterations rely on that sum being exactly 1.0.
    """
    firms, edges = raw
    for net in (build_network(f, edge_blocks(edges)) for f in (firms, without_figures(firms))):
        for scenario in (Scenario.GL, Scenario.LEO):
            m = build_impact_matrices(net, assign_scenario(net, scenario))
            res = run_cascade(net, m, None, np.ones(net.n), max_iter=1, record_trace=True)
            assert np.all(res.trace[1].h_u == 1.0) and np.all(res.trace[1].h_d == 1.0)


@settings(max_examples=200, deadline=None)
@given(coverage_network(), st.data())
def test_no_substitution_sigma_is_exactly_one(raw, data):
    """Alone in its sector, a firm's sigma is s_out / fl(s_out * h_d) >= 1, or
    inf or nan where the product is 0; the cap makes each one exactly 1.0."""
    firms, edges = raw
    n = len(firms)
    psi = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    for net in (build_network(f, edge_blocks(edges)) for f in (firms, without_figures(firms))):
        for scenario in (Scenario.GL, Scenario.LEO):
            m = build_impact_matrices(net, assign_scenario(net, scenario))
            res = run_cascade(net, m, None, psi, epsilon=1e-12, max_iter=20,
                              record_trace=True, substitution=False)
            assert all(np.all(state.sigma == 1.0) for state in res.trace)


@st.composite
def impact_network(draw):
    """A small network; firms without edges, one sector or a single buyer are common."""
    ids = [f"f{k}" for k in range(draw(st.integers(1, 12)))]
    codes = draw(st.sampled_from([["2611"], ["0111", "2611", "4711", "9609"]]))
    firms = [FirmRecord(fid, draw(st.sampled_from(codes))) for fid in ids]
    buyers = draw(st.sampled_from([ids[:1], ids]))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(buyers),
                                    st.floats(1e-3, 1e3)), max_size=40))
    return firms, edges


@settings(max_examples=200, deadline=None)
@given(impact_network())
@example(([FirmRecord("a", "2611"), FirmRecord("b", "2611"), FirmRecord("c", "2611")],
          [("a", "b", 1.0), ("c", "b", 2.0)]))
@example(([FirmRecord("a", "0111"), FirmRecord("b", "4711")], []))
# several head slots, each scenario followed by tail slots (gl 10, mix 17, leo 23 head slots)
@example(generate_synthetic(SyntheticConfig(n_firms=2000, mean_out_degree=10, coverage=0.8), seed=5))
def test_canonical_order_build_matches_lexsort_reference(raw):
    """The canonical-order, int32 build gives the lexsort build's entries, positions and layout.

    The reference pipeline is the lexsort build followed by the per-firm
    coverage rescaling; figures are reported only by the 2000-firm example.
    """
    firms, edges = raw
    net = build_network(firms, edge_blocks(edges))
    for scenario in Scenario:
        spec = assign_scenario(net, scenario)
        m = build_impact_matrices(net, spec)
        ref = reference_rescale_for_coverage(reference_build_impact_matrices(net, spec), firms)
        assert_same_operators(m, ref)
        assert m.seg_starts.tobytes() == ref.seg_starts.tobytes()
        assert np.array_equal(m.slots.rows, ref.slots.rows)


def assert_same_operators(m, ref):
    """Equal shapes, positions and entry bytes in all three operators, and equal u_resid bytes."""
    for name in ("down_op", "up_op", "sector_op"):
        op, ref_op = getattr(m, name), getattr(ref, name)
        assert op.shape == ref_op.shape
        assert op.data.tobytes() == ref_op.data.tobytes()
        assert np.array_equal(op.indices, ref_op.indices)
        assert np.array_equal(op.indptr, ref_op.indptr)
    assert m.u_resid.tobytes() == ref.u_resid.tobytes()


@st.composite
def reported_network(draw):
    """A small network whose firms report income figures on either side of their strengths.

    Each figure is missing, 0.0, 5e-324 (the ratio overflows to inf), below,
    equal to or above the firm's observed strength, or 1e300.
    """
    firms, edges = draw(impact_network())
    observed = build_network(firms, edge_blocks(edges))
    kinds = st.sampled_from([None, 0.0, 5e-324, 0.5, 1.0, 3.0, 1e300])

    def figure(strength):
        kind = draw(kinds)
        return kind * float(strength) if kind in (0.5, 1.0, 3.0) else kind

    firms = [FirmRecord(f.firm_id, f.nace4, figure(observed.s_out[i]), figure(observed.s_in[i]))
             for i, f in enumerate(firms)]
    return firms, edges


@pytest.mark.filterwarnings("ignore:overflow encountered")  # the reference's scalar loop
@settings(max_examples=200, deadline=None)
@given(reported_network())
def test_build_applies_coverage_as_the_reference_pipeline(raw):
    """Shares shrunk as they are formed equal the lexsort build rescaled row by row, bit for bit."""
    firms, edges = raw
    net = build_network(firms, edge_blocks(edges))
    for scenario in Scenario:
        spec = assign_scenario(net, scenario)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = build_impact_matrices(net, spec)
        assert_same_operators(
            m, reference_rescale_for_coverage(reference_build_impact_matrices(net, spec), firms))


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 2.0))
@example(0.5)
@example(np.nextafter(0.5, 0.0))
@example(1e-300)
@example(5e-324)
@example(np.nextafter(1.0, 2.0))
def test_observed_share_plus_remainder_is_one(s):
    """clip(s + clip(1 - s, 0, 1), 0, 1) == 1.0 under round-to-nearest."""
    s = np.float64(s)
    assert np.clip(s + np.clip(1.0 - s, 0.0, 1.0), 0.0, 1.0) == 1.0
