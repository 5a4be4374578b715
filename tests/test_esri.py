"""Per-firm index batches: values, determinism, bookkeeping."""

import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from reference import edge_blocks

import prodrisk

from prodrisk.netcore import (
    DataError,
    FirmRecord,
    SyntheticConfig,
    build_network,
    fingerprint,
    generate_synthetic,
)
from prodrisk.prodfun import Scenario, assign_scenario, calibrate
from prodrisk.cascade import build_impact_matrices, rescale_for_coverage
from prodrisk.kernel import Workspace
from prodrisk import esri, netcore
from prodrisk.esri import BLOCK, esri_all, esri_single, scenario_suite


def prepared(net, scenario):
    spec = assign_scenario(net, scenario)
    params = calibrate(net, spec)
    return params, rescale_for_coverage(build_impact_matrices(net, spec), net)


def src_env() -> dict:
    """The environment of a child Python that imports this prodrisk."""
    src = str(Path(prodrisk.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def sink_net():
    """Three small and one large supplier feeding a sink with no sales."""
    firms = [FirmRecord("A", "0111"), FirmRecord("B", "0211"),
             FirmRecord("C", "0311"), FirmRecord("E", "0411"),
             FirmRecord("D", "4711")]
    edges = [("A", "D", 5.0), ("B", "D", 5.0), ("C", "D", 5.0), ("E", "D", 85.0)]
    return build_network(firms, edge_blocks(edges))


class TestSingle:
    def test_sink_supplier_loses_only_itself(self):
        net = sink_net()
        params, m = prepared(net, Scenario.LEO)
        value, res = esri_single(net, m, params, net.index_of["A"])
        # the sink produces nothing, so only A's own 5 of 100 is lost
        assert value == 0.05
        assert res.converged
        assert res.h_final[net.index_of["A"]] == 0.0

    def test_matches_batch_entry(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=30), seed=4)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.GL)
        vec = esri_all(net, m, params)
        for firm in (0, 7, 29):
            value, res = esri_single(net, m, params, firm)
            assert value == vec.values[firm]
            assert res.T == vec.T[firm]
            assert res.converged == vec.converged[firm]

    def test_out_of_range_firm(self):
        net = sink_net()
        params, m = prepared(net, Scenario.GL)
        with pytest.raises(ValueError, match="out of range"):
            esri_single(net, m, params, 99)

    def test_zero_output_network_rejected(self):
        net = build_network([FirmRecord("a"), FirmRecord("b")], [])
        params, m = prepared(net, Scenario.GL)
        with pytest.raises(DataError):
            esri_single(net, m, params, 0)
        with pytest.raises(DataError):
            esri_all(net, m, params)


class TestBatch:
    def test_worker_count_does_not_change_results(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=150), seed=9)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.GL)
        one = esri_all(net, m, params, worker_count=1)
        two = esri_all(net, m, params, worker_count=2)
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.T, two.T)
        assert np.array_equal(one.converged, two.converged)

    def test_progress_reports_cover_all_firms(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=130), seed=2)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.LIN)
        calls = []
        esri_all(net, m, params, progress=lambda done, total: calls.append((done, total)))
        dones = [c[0] for c in calls]
        assert dones == sorted(dones) and dones[-1] == net.n
        assert all(total == net.n for _, total in calls)

    def test_metadata_recorded(self):
        net = sink_net()
        params, m = prepared(net, Scenario.MIX)
        vec = esri_all(net, m, params, epsilon=1e-3, max_iter=77)
        assert vec.firm_ids == net.firm_ids
        assert vec.network_fingerprint == fingerprint(net)

    def test_results_frozen(self):
        net = sink_net()
        params, m = prepared(net, Scenario.GL)
        vec = esri_all(net, m, params)
        with pytest.raises(ValueError):
            vec.values[0] = 0.0

    def test_non_convergence_flagged_per_firm(self):
        net = sink_net()
        params, m = prepared(net, Scenario.LEO)
        vec = esri_all(net, m, params, epsilon=1e-2, max_iter=1)
        # a complete failure always moves some level by 1 in the first step
        assert np.all(vec.T == 1)
        assert not np.any(vec.converged)

    def test_concurrent_batches_keep_their_own_context(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=400), seed=3)
        net = build_network(firms, edge_blocks(edges))
        jobs = {s: prepared(net, s) for s in (Scenario.GL, Scenario.LEO)}
        serial = {s: esri_all(net, m, params) for s, (params, m) in jobs.items()}
        assert serial[Scenario.GL].values.tobytes() != serial[Scenario.LEO].values.tobytes()
        barrier = threading.Barrier(len(jobs))
        got = {}

        def score(scenario):
            params, m = jobs[scenario]
            barrier.wait(timeout=30)
            try:
                got[scenario] = esri_all(net, m, params)
            except Exception as exc:  # reported below, from the test's own thread
                got[scenario] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=score, args=(s,)) for s in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for scenario, vec in serial.items():
            assert not isinstance(got[scenario], Exception), repr(got[scenario])
            assert got[scenario].values.tobytes() == vec.values.tobytes()
            assert np.array_equal(got[scenario].T, vec.T)
            assert np.array_equal(got[scenario].converged, vec.converged)

    def test_piped_script_under_spawn(self):
        """A script read from stdin scores with threads under spawn: no worker re-imports it."""
        script = (
            "import multiprocessing\n"
            "from prodrisk.netcore import SyntheticConfig, build_network, generate_synthetic\n"
            "from prodrisk.prodfun import Scenario, assign_scenario, calibrate\n"
            "from prodrisk.cascade import build_impact_matrices\n"
            "from prodrisk.esri import esri_all\n"
            "multiprocessing.set_start_method('spawn')\n"
            "firms, edges = generate_synthetic(SyntheticConfig(n_firms=300), seed=9)\n"
            "net = build_network(firms, [zip(*edges)])\n"
            "spec = assign_scenario(net, Scenario.GL)\n"
            "m = build_impact_matrices(net, spec)\n"
            "one, two = (esri_all(net, m, calibrate(net, spec), worker_count=w) for w in (1, 2))\n"
            "for name in ('values', 'T', 'converged'):\n"
            "    assert getattr(one, name).tobytes() == getattr(two, name).tobytes()\n"
            "print(multiprocessing.get_start_method(), len(multiprocessing.active_children()))\n"
        )
        done = subprocess.run([sys.executable, "-"], input=script, env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["spawn", "0"]

    def test_error_in_one_range_is_raised(self, monkeypatch):
        """A range that fails on a pool thread fails the batch with its error, without a hang."""
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=400), seed=3)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.GL)
        run_range = esri._run_range

        def failing(ws, bounds, *args):
            if bounds[0] == 128:
                raise RuntimeError("range 128 failed")
            return run_range(ws, bounds, *args)

        monkeypatch.setattr(esri, "_run_range", failing)
        got = []

        def score():
            try:
                esri_all(net, m, params, worker_count=2)
            except Exception as exc:
                got.append(exc)

        thread = threading.Thread(target=score, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert [str(e) for e in got] == ["range 128 failed"]

    def test_interrupted_batch_starts_no_more_chunks(self, monkeypatch):
        """An error raised in the calling thread, as from progress or Ctrl-C, ends the batch
        once the chunks already running finish."""
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=64 * 40), seed=3)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.LIN)
        run_range = esri._run_range
        ran = []
        monkeypatch.setattr(esri, "_run_range", lambda *args: ran.append(1) or run_range(*args))

        def stop(done, total):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            esri_all(net, m, params, worker_count=2, progress=stop)
        assert len(ran) <= 4

    def test_pool_no_larger_than_the_batch(self, monkeypatch):
        """A pool gets at most one thread per chunk and per CPU, and none for a single
        chunk or CPU."""
        made = []

        class Recorder(ThreadPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(esri, "ThreadPoolExecutor", Recorder)
        for n_firms, cpus, pools in ((150, 4, [3]), (150, 2, [2]), (150, 1, []),
                                     (150, None, []), (64, 4, []), (10, 4, [])):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            firms, edges = generate_synthetic(SyntheticConfig(n_firms=n_firms), seed=9)
            net = build_network(firms, edge_blocks(edges))
            params, m = prepared(net, Scenario.GL)
            made.clear()
            vec = esri_all(net, m, params, worker_count=8)
            assert made == pools
            assert vec.values.tobytes() == esri_all(net, m, params).values.tobytes()

    def test_invalid_worker_count(self):
        net = sink_net()
        params, m = prepared(net, Scenario.GL)
        with pytest.raises(ValueError, match="worker_count"):
            esri_all(net, m, params, worker_count=0)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        net = sink_net()
        params, m = prepared(net, Scenario.GL)
        with pytest.raises(ValueError, match="epsilon"):
            esri_all(net, m, params, epsilon=epsilon)


class TestBlocks:
    """Firms run BLOCK at a time as the columns of one state; no score may notice."""

    @pytest.fixture(scope="class")
    def net(self):
        firms, edges = generate_synthetic(
            SyntheticConfig(n_firms=150, n_sectors=8, mean_out_degree=6.0, coverage=0.7), seed=5)
        net = build_network(firms, edge_blocks(edges))
        assert net.n % BLOCK != 0
        return net

    def test_leo_has_buyers_with_three_groups(self, net):
        _, m = prepared(net, Scenario.LEO)
        assert np.max(np.diff(m.seg_starts, append=m.n_groups)) >= 3

    @pytest.mark.parametrize("max_iter", [1000, 2])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_batch_matches_single_runs_bit_for_bit(self, net, scenario, max_iter):
        params, m = prepared(net, scenario)
        vec = esri_all(net, m, params, max_iter=max_iter)
        for firm in range(net.n):
            value, res = esri_single(net, m, params, firm, max_iter=max_iter)
            assert value == vec.values[firm]
            assert res.T == vec.T[firm]
            assert res.converged == vec.converged[firm]
        if max_iter == 2:
            assert not np.all(vec.converged)  # some columns retire at the cap

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_first_iteration_is_the_failed_firms_share(self, net, scenario):
        """Iteration 1 fails firm i alone, so its index is s_out[i] / sum(s_out) exactly."""
        params, m = prepared(net, scenario)
        share = net.s_out / net.s_out.sum()
        vec = esri_all(net, m, params, max_iter=1)
        assert vec.values.tobytes() == share.tobytes()
        assert np.all(vec.T == 1) and not np.any(vec.converged)
        vec = esri_all(net, m, params, epsilon=1.0, max_iter=1)
        assert vec.values.tobytes() == share.tobytes()
        assert np.all(vec.T == 1) and np.all(vec.converged)

    def test_columns_of_one_block_converge_at_different_T(self, net):
        params, m = prepared(net, Scenario.GL)
        vec = esri_all(net, m, params, epsilon=1e-4)
        assert len(set(vec.T[:BLOCK].tolist())) >= 3
        for firm in range(BLOCK):
            value, res = esri_single(net, m, params, firm, epsilon=1e-4)
            assert (value, res.T) == (vec.values[firm], vec.T[firm])


class TestLosses:
    @pytest.mark.parametrize("n_firms", [7, 100, 3001, 20001])
    def test_block_values_are_the_per_row_losses(self, n_firms):
        """A block's values, taken in one reduction over its rows, are each row's
        _loss_weighted, which esri_single reports, bit for bit."""
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=n_firms), seed=6)
        net = build_network(firms, edge_blocks(edges))
        params, m = prepared(net, Scenario.GL)
        total_out = esri._total_out(net.s_out)
        lo = max(0, n_firms // 2 - 10)
        hi = min(n_firms, lo + 20)
        _, values, _, _ = esri._run_range(Workspace(m, BLOCK), (lo, hi), total_out, 1e-2, 1000)
        for k, firm in enumerate(range(lo, hi)):
            value, res = esri_single(net, m, params, firm)
            assert values[k] == value == esri._loss_weighted(net.s_out, total_out, res.h_final)


class TestSuite:
    def test_fingerprints_the_network_once(self, monkeypatch):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=40), seed=3)
        net = build_network(firms, edge_blocks(edges))
        calls = []
        real = netcore._content_hash
        monkeypatch.setattr(netcore, "_content_hash", lambda n: calls.append(n) or real(n))
        out = scenario_suite(net)
        assert len(calls) == 1
        assert {v.network_fingerprint for v in out.values()} == {real(net)}

    def test_progress_counts_every_scenario(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=70), seed=3)
        net = build_network(firms, edge_blocks(edges))
        calls = []
        scenario_suite(net, progress=lambda done, total: calls.append((done, total)))
        assert [c[0] for c in calls] == sorted(c[0] for c in calls)
        assert calls[-1] == (4 * net.n, 4 * net.n)
        assert {total for _, total in calls} == {4 * net.n}

    def test_runs_all_four_scenarios(self):
        firms, edges = generate_synthetic(SyntheticConfig(n_firms=40, coverage=0.5), seed=1)
        net = build_network(firms, edge_blocks(edges))
        out = scenario_suite(net, epsilon=1e-3)
        assert set(out) == set(Scenario)
        prints = {v.network_fingerprint for v in out.values()}
        assert len(prints) == 1
        for vec in out.values():
            assert vec.firm_ids == net.firm_ids
            assert np.all(vec.values >= 0.0) and np.all(vec.values <= 1.0)
