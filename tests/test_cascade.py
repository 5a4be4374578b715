"""Impact matrices, shock validation and the propagation engine."""

import ctypes
import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import KERNEL_BUILDS
from reference import (SubsetState, dense_net, edge_blocks, reference_build_impact_matrices,
                       reference_cascade, reference_finish, reference_rescale_for_coverage,
                       reference_subset_step, reference_whole_step, replaceability, subset_counts)
from test_acceptance import _micro_fixture

from prodrisk.netcore import (DataError, FirmRecord, SyntheticConfig, build_network,
                              generate_synthetic)
from prodrisk.prodfun import Scenario, assign_scenario, calibrate
from prodrisk import cascade, kernel
from prodrisk.cascade import (
    _iterate,
    build_impact_matrices,
    rescale_for_coverage,
    run_cascade,
)
from prodrisk.kernel import STEP_DECLINED, STEP_ROWS, STEP_WHOLE, Workspace, addr


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


def kernel_matrices(m, substitution):
    """The matrices run_cascade hands the kernel: without substitution, one sector per firm."""
    if substitution:
        return m
    seen = []
    iterate = cascade._iterate

    def spy(mat, *args, **kwargs):
        seen.append(mat)
        return iterate(mat, *args, **kwargs)
    with mock.patch.object(cascade, "_iterate", spy):
        run_cascade(None, m, None, np.ones(m.n), max_iter=1, substitution=False)
    return seen[0]


def both_builds(net, scenario):
    """The package's impact matrices and the reference build, which keeps the group keys."""
    spec = assign_scenario(net, scenario)
    return build_impact_matrices(net, spec), reference_build_impact_matrices(net, spec)


def leo_matrices(scenario=Scenario.LEO):
    """150 firms in 8 sectors: under leo, buyers with up to eight groups."""
    firms, edges = generate_synthetic(
        SyntheticConfig(n_firms=150, n_sectors=8, mean_out_degree=6.0), seed=5)
    return both_builds(build_network(firms, edge_blocks(edges)), scenario)


def entry(matrices, ref, sup, buy):
    """Downstream coefficient of one edge and whether it is essential; ref gives the groups."""
    for g in np.flatnonzero(ref.group_buyer == buy):
        row = matrices.down_op[[g]]
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
        assert m.group_ptr[mill + 1] - m.group_ptr[mill] == 2
        sectors = {int(ref.group_sector[g]) for g in mill_groups}
        assert -1 in sectors            # pooled group marker
        assert len(ref.group_buyer) == m.n_groups

    def test_groups_are_contiguous_per_buyer(self):
        m, ref = leo_matrices()
        # one down_op row per group, in group order, none of them empty
        assert m.down_op.shape == (m.n_groups, m.n)
        assert np.all(np.diff(m.down_op.indptr) > 0)
        # firm i's groups are group_ptr[i] to group_ptr[i + 1]
        assert np.array_equal(np.repeat(np.arange(m.n), np.diff(m.group_ptr)), ref.group_buyer)
        buyers = np.flatnonzero(np.diff(m.group_ptr))
        assert np.array_equal(m.group_ptr[buyers], m.seg_starts)
        assert np.array_equal(buyers, ref.group_buyer[m.seg_starts])
        assert np.diff(m.group_ptr).max() > 2  # several groups for some buyer

    def test_group_ptr_counts_each_buyers_groups_and_inputs(self):
        m, ref = leo_matrices()
        counts = np.bincount(ref.group_buyer, minlength=m.n)
        assert np.array_equal(np.diff(m.group_ptr), counts)
        # a buyer's in-degree is the nonzeros of its contiguous down_op rows
        in_ptr = Workspace(m, 16).in_ptr
        in_deg = np.bincount(m.up_op.indices, minlength=m.n)
        assert np.array_equal(np.diff(in_ptr), in_deg)
        # one index type, int32 at this size, which the kernel reads without a
        # cast; the diagonal sector_op of a no-substitution run too
        diagonal = kernel_matrices(m, substitution=False).sector_op
        ops = (m.down_op, m.up_op, m.sector_op, diagonal)
        arrays = [a for op in ops for a in (op.indices, op.indptr)] + [m.group_ptr, in_ptr]
        assert diagonal.shape == (m.n, m.n)
        assert {a.dtype for a in arrays} == {np.dtype(np.int32)}

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
            for g, total in enumerate(m.down_op.sum(axis=1)):
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

    def test_network_past_int32_is_refused_before_any_array(self):
        """Too many edges or firms for int32 indices is unusable input data, raised up front.

        The stubs hold only the two counts, so reading any array of the
        network would fail with an AttributeError instead.
        """
        limit = np.iinfo(np.int32).max
        for n, n_edges in ((10, 2**31), (2**31, 10)):
            stub = SimpleNamespace(n=n, n_edges=n_edges)
            with pytest.raises(DataError, match=rf"{n} firms and {n_edges} edges.*int32.* {limit}"):
                build_impact_matrices(stub, None)


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

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_negative_zero_cap_scores_as_zero(self, record_trace):
        """A -0.0 entry of psi is the 0 cap: same bytes, no sign bit anywhere."""
        net = subset_net()
        params, m = prepared(net, Scenario.GL)
        firms = [0, 57, 131]
        runs = []
        for zero in (0.0, -0.0):
            psi = np.ones(net.n)
            psi[firms] = zero
            runs.append(run_cascade(net, m, params, psi, record_trace=record_trace))
        plus, minus = runs
        assert (minus.T, minus.converged) == (plus.T, plus.converged)
        pairs = [(getattr(plus, k), getattr(minus, k)) for k in ("h_final", "h_d_final", "h_u_final")]
        for x, y in zip(plus.trace or (), minus.trace or ()):
            pairs += [(x.h_d, y.h_d), (x.h_u, y.h_u)]
        for a, b in pairs:
            assert a.tobytes() == b.tobytes() and not np.signbit(b).any()


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
                                  np.clip(1.0 - m.down_op @ q, 0.0, 1.0))
            # each buyer's level is the smallest availability over its groups
            buyers = np.flatnonzero(np.diff(m.group_ptr))
            hd = np.minimum.reduceat(nxt.pi_tilde, m.seg_starts)
            assert np.array_equal(nxt.h_d[buyers], np.minimum(hd, psi[buyers]))

    def test_trace_state_one_shares_state_zero_factors(self):
        """Iteration 1 steps from the all-ones levels of state 0, so its factors are state 0's."""
        net = mill_net()
        params, m = prepared(net, Scenario.GL)
        psi = np.ones(net.n)
        psi[net.index_of["wheat"]] = 0.0
        res = run_cascade(net, m, params, psi, record_trace=True)
        assert res.trace[1].sigma is res.trace[0].sigma
        assert res.trace[1].pi_tilde is res.trace[0].pi_tilde
        assert not res.trace[1].sigma.flags.writeable

    def test_reused_workspace_allocates_no_state_sized_array(self):
        """Blocks run in one workspace; no iteration makes a new (rows, width) array."""
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=2000, n_sectors=8), seed=11)
        net = build_network(firms, edge_blocks(edges))
        _, m = prepared(net, Scenario.LEO)
        width = 16
        cols = np.arange(width)
        caps = (cols, cols, np.zeros(width))
        fresh_d, fresh_u, fresh_T, _ = _iterate(m, caps, width, 1e-2, 1000)
        ws = Workspace(m, width)
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
        for epsilon in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                run_cascade(net, m, params, good, epsilon=epsilon)
        with pytest.raises(ValueError, match="max_iter"):
            run_cascade(net, m, params, good, max_iter=0)
        # the kernel holds max_iter in an int64, which a larger one would wrap
        for max_iter in (2**63, 2**64 + 1):
            with pytest.raises(ValueError, match="max_iter"):
                run_cascade(net, m, params, good, max_iter=max_iter)
        assert run_cascade(net, m, params, good, max_iter=2**63 - 1).converged
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

    Returns a list that receives one entry per row-subset step tried: True
    where it ran, False where the cost rule declined it.
    """
    for name in ("LOAD_COST", "GATHER_COST", "STEP_COST"):
        monkeypatch.setattr(cascade, name, 0)
    ran = []
    step = Workspace.step

    def counted(self, t):
        live = step(self, t)
        if self.block.ran in (STEP_ROWS, STEP_DECLINED):
            ran.append(self.block.ran == STEP_ROWS)
        return live

    monkeypatch.setattr(Workspace, "step", counted)
    return ran


def all_rows(*args, **kwargs):
    """run_cascade recomputing every row at every iteration: the reference of a row-subset run."""
    with mock.patch.object(cascade, "_subset_budget", lambda m, width: -1):
        return run_cascade(*args, **kwargs)


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

    @pytest.mark.parametrize("scenario", [Scenario.GL, Scenario.LEO])
    def test_moved_sets_are_the_firms_whose_capped_level_fell(self, every_step_subset,
                                                              monkeypatch, scenario):
        """A step leaves in changed_d and changed_u exactly the firms whose level fell
        once capped, in a live column; a binding cap, whose uncapped level lies
        above it, is not a move.

        A wrong moved set changes no bit, only the work, so the levels at the next
        step's entry are the check. A cap binds where the whole step from the
        entry levels (reference_whole_step) gives an uncapped level above it.
        """
        net = subset_net()
        params, m = prepared(net, scenario)
        steps = []
        step = Workspace.step

        def spy(self, t):
            w = self.block.w
            before = *(h.copy() for h in self.state(w)), self.done[:w].copy()
            live = step(self, t)
            steps.append((before, (changed(self), *reference_whole_step(m, *before[:2])[:2])
                          if self.block.ran == STEP_ROWS else None))
            return live

        monkeypatch.setattr(Workspace, "step", spy)
        rng = np.random.default_rng(3)
        runs = []
        for _ in range(4):
            psi = np.ones(net.n)
            psi[rng.choice(net.n, 6, replace=False)] = 0.3
            psi[rng.choice(net.n, 2, replace=False)] = 0.0
            steps.clear()
            run_cascade(net, m, params, psi, epsilon=1e-7)
            capped = np.flatnonzero(psi < 1.0)
            runs.append((list(steps), capped, np.zeros_like(capped), psi[capped]))
        for _ in range(2):  # 16 columns of one 0 cap and three 0.3 caps each
            rows = np.concatenate([rng.choice(net.n, 4, replace=False) for _ in range(16)])
            cols = np.repeat(np.arange(16), 4)
            vals = np.tile([0.0, 0.3, 0.3, 0.3], 16)
            steps.clear()
            _iterate(m, (rows, cols, vals), 16, 1e-4, 1000)
            runs.append((list(steps), rows, cols, vals))

        pairs = binding = 0
        for run_steps, rows, cols, vals in runs:
            for (before, after), (entry, _) in zip(run_steps, run_steps[1:]):
                if after is None or entry[0].shape != before[0].shape:  # compacted between
                    continue
                (h_d, h_u, done), ((changed_d, changed_u), raw_d, raw_u) = before, after
                live = ~done
                fell_d = np.flatnonzero((entry[0] < h_d)[:, live].any(axis=1))
                fell_u = np.flatnonzero((entry[1] < h_u)[:, live].any(axis=1))
                assert changed_d.tolist() == fell_d.tolist()
                assert changed_u.tolist() == fell_u.tolist()
                binding += int(np.count_nonzero((raw_d[rows, cols] > vals) & live[cols])
                               + np.count_nonzero((raw_u[rows, cols] > vals) & live[cols]))
                pairs += 1
        assert pairs > 10 and binding > 10

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-7])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_matches_all_rows_bit_for_bit(self, every_step_subset, scenario, epsilon):
        net = subset_net()
        params, m = prepared(net, scenario)
        for psi, substitution in subset_shocks(net.n):
            sub = run_cascade(net, m, params, psi, epsilon=epsilon, substitution=substitution)
            full = all_rows(net, m, params, psi, epsilon=epsilon, substitution=substitution,
                            record_trace=True)
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
            full = all_rows(net, m, params, psi, substitution=substitution)
            assert sub.h_d_final.tobytes() == full.h_d_final.tobytes()
            assert sub.h_u_final.tobytes() == full.h_u_final.tobytes()
            assert (sub.T, sub.converged) == (full.T, full.converged)

    def test_declined_steps_fit_their_buffers(self, every_step_subset, monkeypatch):
        """A step marks the up_op rows of every moved q before its counts can decline it.

        Under a budget far below up_op's nonzeros, declined steps change no bit.
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
            full = all_rows(net, m, params, psi)
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
        ws = Workspace(m, 16)
        for start in (0, 144, 288):
            firms = np.arange(start, min(start + 16, net.n))
            h_d, h_u, T, conv = _iterate(m, (firms, firms - start, np.zeros(len(firms))),
                                         len(firms), 1e-4, max_iter, ws=ws)
            for j, firm in enumerate(firms):
                psi = np.ones(net.n)
                psi[firm] = 0.0
                full = all_rows(net, m, params, psi, epsilon=1e-4, max_iter=max_iter)
                assert h_d[j].tobytes() == full.h_d_final.tobytes()
                assert h_u[j].tobytes() == full.h_u_final.tobytes()
                assert (T[j], conv[j]) == (full.T, full.converged)
        assert sum(every_step_subset) > 5

    def test_traced_run_takes_row_subset_steps(self, every_step_subset):
        """A trace records the steps scoring takes, and the states of recomputing every row."""
        net = subset_net()
        for scenario in (Scenario.GL, Scenario.LEO):
            params, m = prepared(net, scenario)
            for psi, substitution in subset_shocks(net.n):
                before = sum(every_step_subset)
                got = run_cascade(net, m, params, psi, epsilon=1e-7, substitution=substitution,
                                  record_trace=True)
                assert sum(every_step_subset) > before
                want = all_rows(net, m, params, psi, epsilon=1e-7, substitution=substitution,
                                record_trace=True)
                assert len(got.trace) == len(want.trace)
                for a, b in zip(got.trace, want.trace):
                    for name in ("h_d", "h_u", "sigma", "pi_tilde"):
                        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def mid_cascade_caps(m, width, seed):
    """The caps (rows, cols, values) of mid_cascade_states, one per capped level: its lowest."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m.n, size=2 * width)
    cols = np.repeat(np.arange(width), 2)
    vals = rng.choice([0.0, 0.3], size=2 * width)
    counts = np.bincount(m.sector_of)
    dead = np.flatnonzero(m.sector_of == np.flatnonzero(counts)[np.argmin(counts[counts > 0])])
    rows = np.concatenate([rows, dead])
    cols = np.concatenate([cols, np.zeros(len(dead), dtype=int)])
    vals = np.concatenate([vals, np.zeros(len(dead))])
    key = cols * m.n + rows
    order = np.lexsort((vals, key))  # by level, its lowest cap first
    first = order[np.unique(key[order], return_index=True)[1]]
    return rows[first], cols[first], vals[first]


def mid_cascade_states(m, width, seed, at=(2, 4, 7)):
    """Levels of `width` cascades at the iterations `at`, run with the numpy step.

    Each column caps two random firms at 0 or 0.3; column 0 also stops every
    firm of the smallest sector, whose surviving output is then 0.
    """
    rows, cols, vals = mid_cascade_caps(m, width, seed)
    h_d, h_u = np.ones((m.n, width)), np.ones((m.n, width))
    states = []
    for t in range(1, max(at) + 1):
        if t > 1:
            h_d, h_u = reference_whole_step(m, h_d, h_u)[:2]
        for h in (h_d, h_u):
            h[rows, cols] = np.minimum(h[rows, cols], vals)
        if t in at:
            states.append((h_d.copy(), h_u.copy()))
    return states


def kernel_cases():
    """Each scenario on each build of the kernel, for a parametrization of scenario and
    kernel_build (indirect). An id names the scenario and the operators' index type, the
    kernel's only one, then the build unless it is the portable one."""
    return [pytest.param(scenario, build, id=f"{scenario}-int32" + ("" if build == "portable"
                                                                    else f"-{build}"))
            for build in KERNEL_BUILDS for scenario in Scenario]


class TestKernelStep:
    """The compiled whole-operator step against the numpy step it replaced, bit for bit."""

    @pytest.mark.parametrize("substitution", [True, False])
    @pytest.mark.parametrize("scenario, kernel_build", kernel_cases(), indirect=["kernel_build"])
    def test_matches_numpy_step(self, scenario, kernel_build, substitution):
        net = subset_net()
        m = kernel_matrices(build_impact_matrices(net, assign_scenario(net, scenario)),
                            substitution)
        moved = 0
        for width in range(1, 17):
            for h_d, h_u in mid_cascade_states(m, width, seed=width):
                want = reference_whole_step(m, h_d, h_u)
                got = kernel_step(m, h_d, h_u)
                for name, a, b in zip(("hd_new", "hu_new", "dec", "q", "sector"), got, want):
                    assert np.array_equal(a, b), (width, name)
                    assert a.tobytes() == b.tobytes(), (width, name)
                moved += np.count_nonzero(got[2] > 0)
        assert moved > 50  # the states are mid-cascade: levels still fall

    def test_width_outside_the_kernel_is_refused(self):
        m = prepared(subset_net(), Scenario.GL)[1]
        for width in (0, 17):
            ws = Workspace(m, 16)
            ws.block.w = width
            assert ws.step(2) == -1
            assert kernel.load().finish(ws.ref, m.n, 2) == -1
        with pytest.raises(ValueError, match="1 to 16"):
            Workspace(m, 17)
        # a block wider than the buffers would be written past their ends
        ws = Workspace(m, 2)
        caps = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        for width in (0, 3, 17):
            with pytest.raises(ValueError, match="1 to 2 columns"):
                ws.begin(caps, width, 1e-3, 1000, -1)
        ws.begin(caps, 2, 1e-3, 1000, -1)
        assert ws.step(1) == 0

    def test_int64_indices_are_refused(self):
        m = prepared(subset_net(), Scenario.GL)[1]
        for field in ("group_ptr", "sector_of"):
            wide = dataclasses.replace(m, **{field: getattr(m, field).astype(np.int64)})
            with pytest.raises(TypeError, match="int32"):
                Workspace(wide, 1)


def view(address, count, dtype=np.float64):
    """The count elements of dtype at address: one of the buffers a kernel Block points to."""
    dtype = np.dtype(dtype)
    return np.frombuffer((ctypes.c_char * (count * dtype.itemsize)).from_address(address),
                         dtype=dtype)


def changed(ws):
    """Copies of the workspace's changed_d and changed_u lists."""
    b = ws.block
    return [view(getattr(b, name), getattr(b, "n_" + name), np.intp).copy()
            for name in ("changed_d", "changed_u")]


def subset_states(m, width, seed):
    """Row-subset steps' starting states mid-cascade, from iterations (t, t + 1) of the numpy step.

    The levels are those after t + 1; q and the sector sums those of the
    levels after t; changed_d and changed_u the firms whose levels fell from
    t to t + 1 in a live column; damaged every firm with h_d < 1; and a
    random half of the columns is done, never all of them.
    """
    rng = np.random.default_rng(seed)
    states = mid_cascade_states(m, width, seed, at=(2, 3, 4, 5, 7, 8))
    for (hd0, hu0), (h_d, h_u) in zip(states[::2], states[1::2]):
        done = rng.random(width) < 0.5
        done[rng.integers(width)] = False
        sector = m.sector_op @ hd0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = np.fmin(m.s_out[:, None] / sector[m.sector_of], 1.0) * (1.0 - hd0)
        yield SubsetState(
            h_d=h_d, h_u=h_u, q=q, sector=sector, damaged=(h_d < 1.0).any(axis=1),
            changed_d=np.flatnonzero(((h_d < hd0) & ~done).any(axis=1)),
            changed_u=np.flatnonzero(((h_u < hu0) & ~done).any(axis=1)), done=done)


def load_block(ws, s, budget, caps):
    """Point the workspace's block at the state s, with the given budget and caps.

    Its epsilon is -1, so no column finishes.
    """
    b = ws.block
    n, w = s.h_d.shape
    ws.begin(caps, w, -1.0, 10 ** 9, budget)
    for name in ("h_d", "h_u", "q", "sector"):
        view(getattr(b, name), n * w if name != "sector" else s.sector.size)[:] = \
            getattr(s, name).reshape(-1)
    view(b.damaged, n, bool)[:] = s.damaged
    view(b.done, w, bool)[:] = s.done
    for name in ("changed_d", "changed_u"):
        rows = getattr(s, name)
        view(getattr(b, name), len(rows), np.intp)[:] = rows
        setattr(b, "n_" + name, len(rows))


class TestKernelGlue:
    """The compiled row-subset step, caps, finishing and compaction against their numpy oracles."""

    @pytest.mark.parametrize("scenario, kernel_build", kernel_cases(), indirect=["kernel_build"])
    def test_step_matches_the_numpy_step(self, scenario, kernel_build):
        """Levels, decrements, moved rows, q, sector sums and declined steps, byte for byte."""
        net = subset_net()
        m = build_impact_matrices(net, assign_scenario(net, scenario))
        kinds = []
        for width in range(1, 17):
            ws = Workspace(m, width)
            rows, cols, vals = mid_cascade_caps(m, width, seed=width)
            at = rows * width + cols
            for s in subset_states(m, width, seed=width):
                nnz_down, nnz_up = subset_counts(m, s)
                for budget in {nnz_down + nnz_up, nnz_down + nnz_up - 1, nnz_down, nnz_down - 1,
                               10 ** 9} - {-1}:
                    load_block(ws, s, budget, (rows, cols, vals))
                    assert ws.step(2) == np.count_nonzero(~s.done)  # none finishes
                    kind = ws.block.ran
                    kinds.append(kind)
                    got_d, got_u = ws.state(width)
                    dec = ws.dec[:width]
                    want = reference_subset_step(m, s, budget, caps=(at, vals))
                    if want is None:
                        assert kind == STEP_DECLINED and ws.block.budget == -1
                        hd_new, hu_new, want_dec = reference_whole_step(m, s.h_d, s.h_u)[:3]
                        for h in (hd_new.reshape(-1), hu_new.reshape(-1)):
                            h[at] = np.minimum(h[at], vals)
                        pairs = [(got_d, hd_new), (got_u, hu_new), (dec, want_dec)]
                    else:
                        assert kind == STEP_ROWS
                        r, want_dec = want
                        b = ws.block
                        pairs = [(got_d, r.h_d), (got_u, r.h_u), (dec, want_dec),
                                 *zip(changed(ws), (r.changed_d, r.changed_u)),
                                 (view(b.damaged, m.n, bool), r.damaged),
                                 (view(b.q, m.n * width), r.q.reshape(-1)),
                                 (view(b.sector, r.sector.size), r.sector.reshape(-1))]
                    for a, e in pairs:
                        assert a.dtype == e.dtype and a.tobytes() == e.tobytes(), (width, budget)
        assert kinds.count(STEP_ROWS) > 50 and kinds.count(STEP_DECLINED) > 50

    def test_finish_matches_the_numpy_finish(self):
        """Columns stop, go to their out rows and are compacted as in the numpy loop.

        As in a run, fewer than half of a block's columns are done on entry.
        """
        m = prepared(subset_net(), Scenario.GL)[1]
        n, rng = m.n, np.random.default_rng(2)
        ws = Workspace(m, 16)
        b = ws.block
        compacted = 0
        for w in [w for w in range(1, 17) for _ in range(6)]:
            h_d, h_u = rng.random((n, w)), rng.random((n, w))
            dec = rng.choice([0.0, 5e-3, 1e-2, 2e-2, 0.5], size=w)
            done = np.zeros(w, dtype=bool)
            done[rng.permutation(w)[:rng.integers(0, (w + 1) // 2)]] = True
            col_of = rng.permutation(16)[:w]
            caps = rng.permutation(n)[:3 * w], rng.integers(0, w, 3 * w), rng.random(3 * w)
            t, max_iter = [(5, 9), (9, 9)][rng.integers(2)]
            T0, conv0 = np.full(16, max_iter), np.zeros(16, dtype=bool)
            out0 = rng.random((2, 16, n))
            want_T, want_conv, want_out = T0.copy(), conv0.copy(), out0.copy()
            want_d, want_u, want_col_of, want_done, (rows, cols, vals) = reference_finish(
                h_d, h_u, dec, done, col_of, want_T, want_conv, *want_out, caps, t, max_iter, 1e-2)

            ws.begin(caps, w, 1e-2, max_iter, 7)
            T, conv = T0.copy(), conv0.copy()  # col_of places columns among 16
            b.T, b.converged = addr(T), addr(conv)
            ws.out_d[:], ws.out_u[:] = out0
            for name, a in (("h_d", h_d), ("h_u", h_u)):
                view(getattr(b, name), a.size)[:] = a.reshape(-1)
            ws.dec[:w], ws.done[:w] = dec, done
            view(b.col_of, w, np.intp)[:] = col_of
            live = kernel.load().finish(ws.ref, n, t)

            w2 = want_d.shape[1]
            compacted += w2 < w
            assert live == np.count_nonzero(~want_done)
            assert (b.w, b.budget) == (w2, -1 if w2 < w else 7)
            got = [*ws.state(w2), view(b.col_of, w2, np.intp), ws.done[:w2],
                   view(b.cap_at, b.n_caps, np.intp), view(b.cap_val, b.n_caps), T, conv,
                   ws.out_d, ws.out_u]
            expect = [want_d, want_u, want_col_of, want_done, rows * w2 + cols, vals, want_T,
                      want_conv, *want_out]
            for a, e in zip(got, expect):
                assert a.dtype == e.dtype and a.tobytes() == e.tobytes(), w
        assert compacted > 10


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
# buyers with many groups: up to 26 in gl and 50 in mix and leo
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
        assert np.array_equal(m.group_ptr, ref.group_ptr)


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


def kernel_step(m, h_d, h_u):
    """One whole-operator iteration of the compiled kernel from the (n, width) levels h_d, h_u.

    Runs step at t = 2 on a block with budget -1 and no caps, as load_block
    sets it up. Returns copies of hd_new, hu_new, the per-column largest
    decrement, q and the (n_sectors, width) sector sums.
    """
    n, width = h_d.shape
    ws = Workspace(m, width)
    none = np.empty(0, dtype=np.intp)
    sector = np.zeros((m.sector_op.shape[0], width))
    load_block(ws, SubsetState(h_d=h_d, h_u=h_u, q=np.zeros_like(h_d), sector=sector,
                               damaged=np.zeros(n, dtype=bool), changed_d=none, changed_u=none,
                               done=np.zeros(width, dtype=bool)), -1, (none, none, np.empty(0)))
    assert ws.step(2) == width and ws.block.ran == STEP_WHOLE  # no column finishes
    b = ws.block
    return (*(h.copy() for h in ws.state(width)), ws.dec[:width].copy(),
            view(b.q, n * width).reshape(n, width).copy(),
            view(b.sector, sector.size).reshape(sector.shape).copy())


@settings(max_examples=200, deadline=None)
@given(st.one_of(reported_network(), coverage_network()))
def test_unshocked_step_is_bitwise_stationary(raw):
    """One whole-operator iteration from all-ones leaves every level at exactly 1.0.

    The kernel takes iteration 1 from the caps alone and relies on this: the
    upstream row of a supplier is clip(s + u_resid, 0, 1), where s is its
    observed share and u_resid = clip(1 - s, 0, 1) comes from the same
    matvec; every downstream product is of sigma * 0. Checked with and
    without income figures, in every scenario, with and without
    substitution, one column and a block of 16.
    """
    firms, edges = raw
    for net in (build_network(f, edge_blocks(edges)) for f in (firms, without_figures(firms))):
        for scenario in Scenario:
            m = build_impact_matrices(net, assign_scenario(net, scenario))
            for substitution in (True, False):
                for width in (1, 16):
                    ones = np.ones((m.n, width))
                    h_d, h_u = kernel_step(kernel_matrices(m, substitution), ones, ones)[:2]
                    assert np.all(h_d == 1.0) and np.all(h_u == 1.0)


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
