"""Ten-point acceptance checklist for the whole package.

Each test wraps its assertions in criterion(); the terminal summary prints
one PASS/FAIL line per criterion. Fixtures are either hand-built micro
networks with closed-form outcomes or seeded synthetic networks checked
against the dense oracle in reference.py.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from conftest import criterion
from reference import (DenseNet, dense_net, edge_blocks, reference_cascade, reference_esri,
                       reference_filter)

from prodrisk.netcore import (
    FirmRecord,
    SyntheticConfig,
    TransactionEvent,
    build_network,
    filter_long_term_links,
    generate_synthetic,
)
from prodrisk.prodfun import Scenario, assign_scenario, calibrate
from prodrisk.cascade import build_impact_matrices, rescale_for_coverage, run_cascade
from prodrisk.esri import esri_all, esri_single
from prodrisk.analysis import fit_powerlaw_mle, sector_shock_experiment

ALL_SCENARIOS = (Scenario.LIN, Scenario.GL, Scenario.MIX, Scenario.LEO)

# (s_out, esri values) pairs accumulated by the heavy tests and re-checked
# by the self-loss bound criterion on top of its own fixture
_BOUND_SAMPLES: list[tuple[np.ndarray, np.ndarray]] = []


def prepared(net, scenario):
    spec = assign_scenario(net, scenario)
    params = calibrate(net, spec)
    matrices = rescale_for_coverage(build_impact_matrices(net, spec), net)
    return spec, params, matrices


def test_criterion_1_replaceability_example():
    """A supplier at 80% with in-sector share 0.5 and replaceability 0.1
    costs its customer exactly 1%; with substitution off it costs 10%."""
    with criterion(1, "replaceability damping: 1% customer drop, 10% without substitution"):
        firms = [
            FirmRecord("S", "2611"),
            FirmRecord("Z", "2611"),
            FirmRecord("X", "2611"),
            FirmRecord("B", "1071"),
            FirmRecord("D", "9999"),
        ]
        edges = [("S", "B", 10.0), ("Z", "B", 10.0), ("X", "D", 82.0)]
        net = build_network(firms, edge_blocks(edges))
        _, params, matrices = prepared(net, Scenario.LEO)
        b = net.index_of["B"]
        s = net.index_of["S"]

        psi = np.ones(net.n)
        psi[s] = 0.8
        res = run_cascade(net, matrices, params, psi, epsilon=1e-2, max_iter=10,
                          record_trace=True)
        # once S sits at 0.8 the surviving sector output is 8 + 10 + 82 = 100,
        # so S is 10% replaceable; B loses 0.1 * 0.5 * 0.2 = 1%
        sigma_s = res.trace[2].sigma[s]
        assert abs(sigma_s - 0.1) <= 1e-12
        assert abs(res.trace[2].h_d[b] - 0.99) <= 1e-12
        assert abs(res.h_final[b] - 0.99) <= 1e-12

        blunt = run_cascade(net, matrices, params, psi, epsilon=1e-2, max_iter=10,
                            substitution=False)
        assert abs(blunt.h_final[b] - 0.90) <= 1e-12


def _micro_fixture(seed: int):
    """Random network of 2..8 firms; odd seeds carry income-statement figures."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    pool = ["0111", "1071", "2611", "3320", "4711", "6201", "9609", ""]
    ids = [f"M{k}" for k in range(n)]
    codes = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]

    m = int(rng.integers(1, n * n + 1))
    raw = []
    for _ in range(m):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        raw.append((ids[i], ids[j], float(rng.uniform(0.5, 20.0))))

    s_out = {fid: 0.0 for fid in ids}
    s_in = {fid: 0.0 for fid in ids}
    for sid, bid, w in raw:
        if sid != bid:
            s_out[sid] += w
            s_in[bid] += w

    firms = []
    for k, fid in enumerate(ids):
        rev = cost = None
        if seed % 2 and rng.random() < 0.8:
            rev = s_out[fid] * float(rng.uniform(1.0, 2.5)) or None
            cost = s_in[fid] * float(rng.uniform(1.0, 2.5)) or None
        firms.append(FirmRecord(fid, codes[k], revenue=rev, material_cost=cost))
    return firms, raw


def test_criterion_2_dense_oracle_equivalence():
    """Sparse engine versus the dense loop oracle on 100 micro networks."""
    with criterion(2, "dense-oracle equivalence on 100 micro networks, all scenarios"):
        t0 = time.perf_counter()
        for seed in range(100):
            firms, raw = _micro_fixture(seed)
            net = build_network(firms, edge_blocks(raw))
            if float(np.sum(net.s_out)) == 0:
                continue
            dn = dense_net(net)
            rng = np.random.default_rng(1000 + seed)
            psi = rng.uniform(0.0, 1.0, size=net.n)
            psi[int(rng.integers(0, net.n))] = 0.0

            for scenario in ALL_SCENARIOS:
                _, params, matrices = prepared(net, scenario)
                res = run_cascade(net, matrices, params, psi, epsilon=1e-3,
                                  max_iter=50, record_trace=True)
                ref = reference_cascade(dn, scenario.value, psi, epsilon=1e-3,
                                        max_iter=50)
                assert res.T == ref["T"] and res.converged == ref["converged"]
                assert len(res.trace) == len(ref["h_d"])
                for t, state in enumerate(res.trace):
                    assert np.max(np.abs(state.h_d - ref["h_d"][t])) <= 1e-9
                    assert np.max(np.abs(state.h_u - ref["h_u"][t])) <= 1e-9
                    assert np.max(np.abs(state.sigma - ref["sigma"][t])) <= 1e-9
                assert np.max(np.abs(res.h_final - ref["h_final"])) <= 1e-9

                vec = esri_all(net, matrices, params, epsilon=1e-3, max_iter=50)
                ref_vals = reference_esri(dn, scenario.value, epsilon=1e-3, max_iter=50)
                assert np.max(np.abs(vec.values - ref_vals)) <= 1e-9
                _BOUND_SAMPLES.append((net.s_out, vec.values))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"micro-network comparison took {elapsed:.1f}s"


def test_criterion_3_monotone_convergence():
    """Levels never rise, replaceability never falls, everything converges."""
    with criterion(3, "monotone h, monotone sigma, convergence on 100 random networks"):
        t0 = time.perf_counter()
        for seed in range(100):
            cfg = SyntheticConfig(n_firms=200, coverage=1.0 if seed % 2 else 0.7)
            firms, edges = generate_synthetic(cfg, seed=seed)
            net = build_network(firms, edge_blocks(edges))
            scenario = ALL_SCENARIOS[seed % 4]
            _, params, matrices = prepared(net, scenario)
            total = float(np.sum(net.s_out))
            values = np.empty(net.n)
            psi = np.ones(net.n)
            for firm in range(net.n):
                psi[firm] = 0.0
                res = run_cascade(net, matrices, params, psi, epsilon=1e-2,
                                  max_iter=1000, record_trace=True)
                psi[firm] = 1.0
                assert res.converged and res.T <= 1000
                hd = np.stack([s.h_d for s in res.trace])
                hu = np.stack([s.h_u for s in res.trace])
                sg = np.stack([s.sigma for s in res.trace])
                assert np.all(np.diff(hd, axis=0) <= 0.0)
                assert np.all(np.diff(hu, axis=0) <= 0.0)
                assert np.all(np.diff(sg, axis=0) >= 0.0)
                values[firm] = float(np.sum(net.s_out * (1.0 - res.h_final)) / total)
            _BOUND_SAMPLES.append((net.s_out, values))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"monotonicity sweep took {elapsed:.1f}s"


def test_criterion_4_scenario_bounds():
    """More essentiality means more systemic risk, firm by firm."""
    with criterion(4, "scenario ordering lin <= gl <= mix <= leo within 1e-6"):
        t0 = time.perf_counter()
        for seed in range(100):
            cfg = SyntheticConfig(n_firms=200, coverage=0.35,
                                  share_physical_sectors=0.75)
            firms, edges = generate_synthetic(cfg, seed=seed)
            net = build_network(firms, edge_blocks(edges))
            vals = {}
            for scenario in ALL_SCENARIOS:
                _, params, matrices = prepared(net, scenario)
                vec = esri_all(net, matrices, params, epsilon=1e-8, max_iter=1000)
                assert bool(np.all(vec.converged))
                vals[scenario] = vec.values
                _BOUND_SAMPLES.append((net.s_out, vec.values))
            for lo, hi in zip(ALL_SCENARIOS, ALL_SCENARIOS[1:]):
                assert float(np.max(vals[lo] - vals[hi])) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"scenario-bound sweep took {elapsed:.1f}s"


def test_criterion_5_self_loss_bound():
    """A firm's index is at least its own output share, with no tolerance."""
    with criterion(5, "self-loss lower bound holds exactly on every test network"):
        firms = [
            FirmRecord("A", "0111"), FirmRecord("B", "1071"),
            FirmRecord("C", "2611"), FirmRecord("D", "4711"),
        ]
        edges = [("A", "D", 5.0), ("B", "D", 5.0), ("C", "D", 85.0), ("D", "A", 2.0)]
        net = build_network(firms, edge_blocks(edges))
        for scenario in ALL_SCENARIOS:
            _, params, matrices = prepared(net, scenario)
            vec = esri_all(net, matrices, params, epsilon=1e-2, max_iter=1000)
            _BOUND_SAMPLES.append((net.s_out, vec.values))

        assert _BOUND_SAMPLES
        for s_out, values in _BOUND_SAMPLES:
            bound = s_out / np.sum(s_out)
            assert np.all(values >= bound)


def test_criterion_6_powerlaw_recovery():
    """MLE on heavy-tailed samples, plus the closed-form point case."""
    with criterion(6, "power-law MLE: 1.5 within 0.02 on 1e5 samples, exact 2 on e*x_min"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        u = 1.0 - rng.random(100_000)
        x = u ** -2.0  # tail exponent 0.5, density exponent 1.5
        fit = fit_powerlaw_mle(x, x_min=1.0, x_max=float(np.max(x)))
        assert fit.n_used == 100_000
        assert abs(fit.alpha_hat - 1.5) <= 0.02

        exact = fit_powerlaw_mle(np.full(50, math.e), x_min=1.0, x_max=10.0)
        assert exact.alpha_hat == 2.0
        scaled = fit_powerlaw_mle(np.full(50, 0.5 * math.e), x_min=0.5, x_max=10.0)
        assert scaled.alpha_hat == 2.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"MLE recovery took {elapsed:.1f}s"


def _chain_fixture(with_side_suppliers: bool):
    chain = ["A", "B", "C", "D", "E"]
    sectors = ["0111", "0211", "0311", "0411", "0511"]
    firms = [FirmRecord(f, s) for f, s in zip(chain, sectors)]
    edges = [(chain[k], chain[k + 1], 10.0) for k in range(4)]
    if with_side_suppliers:
        for k, tgt in enumerate(chain[1:]):
            firms.append(FirmRecord(f"U{tgt}", f"{10 + k}11"))
            edges.append((f"U{tgt}", tgt, 10.0))
    return build_network(firms, edge_blocks(edges))


def test_criterion_7_chain_propagation():
    """Sole-supplier chain: source failure wipes the chain; with a second
    input channel the linear scenario loses strictly less."""
    with criterion(7, "chain collapse under leo, strictly smaller loss under lin"):
        net = _chain_fixture(with_side_suppliers=False)
        _, params, matrices = prepared(net, Scenario.LEO)
        a = net.index_of["A"]
        value, res = esri_single(net, matrices, params, a, epsilon=1e-2, max_iter=100)
        downstream = [net.index_of[f] for f in "ABCDE"]
        assert all(res.h_final[i] == 0.0 for i in downstream)
        share = float(np.sum(net.s_out[downstream]) / np.sum(net.s_out))
        assert value == share == 1.0
        assert res.converged and res.T == 6

        net2 = _chain_fixture(with_side_suppliers=True)
        a2 = net2.index_of["A"]
        _, params_leo, mat_leo = prepared(net2, Scenario.LEO)
        v_leo, res2 = esri_single(net2, mat_leo, params_leo, a2, epsilon=1e-2, max_iter=100)
        downstream2 = [net2.index_of[f] for f in "ABCDE"]
        assert all(res2.h_final[i] == 0.0 for i in downstream2)
        share2 = float(np.sum(net2.s_out[downstream2]) / np.sum(net2.s_out))
        assert v_leo == share2 == 0.5

        _, params_lin, mat_lin = prepared(net2, Scenario.LIN)
        v_lin, _ = esri_single(net2, mat_lin, params_lin, a2, epsilon=1e-2, max_iter=100)
        assert v_lin == 0.234375  # 18.75 of 80, all halving steps are exact
        assert v_lin < v_leo


def test_criterion_8_aggregation_divergence():
    """Equal-size sector shocks land very differently depending on which
    firm absorbs them, because same-sector firms serve disjoint markets."""
    with criterion(8, "size-matched sector shocks diverge across firm allocations"):
        firms = [
            FirmRecord("P1", "1001"), FirmRecord("P2", "3001"),
            FirmRecord("A", "2611"), FirmRecord("B", "2611"),
            FirmRecord("C1", "5001"), FirmRecord("C2", "6001"),
            FirmRecord("T", "9901"),
        ]
        edges = [
            ("P1", "A", 22.0), ("P2", "B", 30.0),
            ("A", "C1", 50.0), ("B", "C2", 298.0),
            ("C1", "T", 40.0), ("C2", "T", 240.0),
        ]
        net = build_network(firms, edge_blocks(edges))
        _, _, matrices = prepared(net, Scenario.LEO)

        # total strength of the sector: A carries 72 of 400, B the rest
        magnitude = 0.18
        report = sector_shock_experiment(
            net, matrices, sector="2611", magnitude=magnitude,
            firm_scenarios=[{"A": 0.0}, {"B": 1.0 - 72.0 / 328.0}],
            labels=["all_on_A", "all_on_B"], epsilon=1e-8, max_iter=1000)

        assert report.converged
        vectors = [report.received_ref, report.received[0], report.received[1]]
        for i in range(3):
            for j in range(i + 1, 3):
                assert float(np.max(np.abs(vectors[i] - vectors[j]))) > 1e-6
        corr = float(report.deviation_correlation[0, 1])
        assert math.isfinite(corr) and corr < 0.99


def test_criterion_9_scale_and_determinism(tmp_path: Path):
    """Full batch on a 10k-firm network in under a minute, identical bytes
    for 1 and 8 workers."""
    with criterion(9, "10k-firm batch under 60s with worker-count-invariant output"):
        cli = [sys.executable, "-m", "prodrisk.cli"]
        gen = subprocess.run(
            cli + ["generate", "--n", "10000", "--mean-out-degree", "10",
                   "--coverage", "0.8", "--seed", "1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert gen.returncode == 0, gen.stderr
        n_edges = sum(1 for _ in open(tmp_path / "edges.csv")) - 1
        assert abs(n_edges - 100_000) <= 10_000

        common = ["esri", "--firms", str(tmp_path / "firms.csv"),
                  "--edges", str(tmp_path / "edges.csv"), "--scenario", "gl"]
        t0 = time.perf_counter()
        r8 = subprocess.run(cli + common + ["--workers", "8",
                                            "--out-dir", str(tmp_path / "w8")],
                            capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        assert r8.returncode == 0, r8.stderr
        assert elapsed < 60.0, f"8-worker batch took {elapsed:.1f}s"

        r1 = subprocess.run(cli + common + ["--workers", "1",
                                            "--out-dir", str(tmp_path / "w1")],
                            capture_output=True, text=True)
        assert r1.returncode == 0, r1.stderr
        b8 = (tmp_path / "w8" / "esri.csv").read_bytes()
        b1 = (tmp_path / "w1" / "esri.csv").read_bytes()
        assert b8 == b1
        assert b8.count(b"\n") == 10_001


def test_criterion_10_long_term_filter():
    """Brute-force agreement plus both survival rules at their boundaries."""
    with criterion(10, "long-term link filter matches brute force, both rules exercised"):
        d0 = date(2023, 1, 1)
        fixed = [
            TransactionEvent("a", "b", d0, 10.0),                          # single event
            TransactionEvent("c", "d", d0, 5.0),                           # 89-day span
            TransactionEvent("c", "d", d0 + timedelta(days=89), 5.0),
            TransactionEvent("e", "f", d0, 7.0),                           # 90-day span
            TransactionEvent("e", "f", d0 + timedelta(days=90), 3.0),
            TransactionEvent("g", "h", d0, 1.0),                           # many, too close
            TransactionEvent("g", "h", d0 + timedelta(days=30), 1.0),
            TransactionEvent("g", "h", d0 + timedelta(days=60), 1.0),
        ]
        kept = filter_long_term_links(fixed)
        assert kept == [("e", "f", 10.0)]
        assert kept == reference_filter(fixed)

        rng = np.random.default_rng(7)
        ids = [f"W{k}" for k in range(12)]
        for trial in range(30):
            events = []
            n_pairs = int(rng.integers(3, 15))
            for _ in range(n_pairs):
                sid, bid = rng.choice(ids, size=2, replace=False)
                count = int(rng.integers(1, 6))
                span = int(rng.integers(0, 200))
                days = sorted(rng.integers(0, span + 1, size=count).tolist()) if count > 1 else [0]
                if count > 1:
                    days[0], days[-1] = 0, span
                for dd in days:
                    events.append(TransactionEvent(
                        str(sid), str(bid), d0 + timedelta(days=int(dd)),
                        float(rng.uniform(0.1, 50.0))))
            order = rng.permutation(len(events))
            events = [events[k] for k in order]
            assert filter_long_term_links(events) == reference_filter(events)
