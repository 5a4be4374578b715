"""prodrisk benchmark: CSV in, score files out, every metric by name and unit.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is one closed-loop batch job at a time, driven from this
process: inputs come from ``prodrisk generate`` with the workload seed and are
cached by (workload, size, seed) under ``.perfbench_work/`` before timing
starts. Every job is a fresh ``python3 perfbench/job.py`` process that runs
the ``prodrisk`` CLI with thin wrappers around its library calls; BLAS and
OpenMP are pinned to one thread, so the ``esri`` process pool is the only
parallelism.

Workloads (``--mean-out-degree 10 --coverage 0.8``):

``batch-gl-5k``      5,000 firms, ``esri --scenario gl --workers 1``, then ``analyze``
``suite-all-3k-w2``  3,000 firms, ``esri --scenario all --workers 2``
``shock-100k``       100,000 firms, ``esri --scenario gl --psi-file``: psi = 0 for
                     every firm of the physical sector with the most firms

With ``--trace 0`` a run repeats full jobs until ``--seconds`` is used up (at
least one), then takes more set-up samples until it has three: probes that
stop the CLI at its entry into scoring, or full jobs where set-up is most of
a job. It reports medians of the end-to-end metrics. On ``shock-100k`` the
one cascade is too short to time alone, so ``cascades_per_core_s`` there is
one over the median time of that cascade and ten reruns of it, made after
the CLI returns with the arguments it passed. ``fail_frac`` is printed with them and is the ``failed`` /
``attempted`` pair of the result. With ``--trace 1`` it runs the same
untraced jobs, then one traced job, and reports the per-layer metrics and
``tracing_overhead_frac`` against the untraced median.

Every job is checked: each CLI call exits 0, every cascade converges, every
h and ESRI value lies in [0, 1], a fixed sample of firms rescored with
``esri_single`` (or the custom shock rerun) matches the written rows bit for
bit, and at the sizes and seed recorded in ``golden.json`` every output file
matches its sha256 (entries written by ``--record-golden`` from a commit whose
outputs are known good). A failed check counts in ``failed`` and makes the exit
code 1. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH_DIR / "golden.json"

GEN_ARGS = ["--mean-out-degree", "10", "--coverage", "0.8"]
MIN_SETUP_SAMPLES = 3
HARD_STOP_S = 90.0      # no new job starts after this, so a run ends well inside 180 s
DEADLINE = time.monotonic() + 170.0  # children still running then are killed
CACHED_FIXTURES = 3     # per workload, least recently used evicted first
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SCENARIOS = ("lin", "gl", "mix", "leo")

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cascades_per_core_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "netcore.build_network_s": "s",
    "netcore.fingerprint_s": "s",
    "netcore.fingerprint_calls": "count",
    "prodfun.assign_scenario_s": "s",
    "prodfun.calibrate_s": "s",
    "cascade.build_impact_s": "s",
    "cascade.cascades": "count",
    "cascade.iterations": "count",
    "cascade.T_mean": "iter",
    "cascade.T_max": "iter",
    "cascade.nonconverged": "count",
    "cascade.iter_us": "us",
    "cascade.down_spmv_us": "us",
    "cascade.up_spmv_us": "us",
    "cascade.sector_sum_us": "us",
    "cascade.group_min_us": "us",
    "cascade.nnz_down": "count",
    "cascade.nnz_up": "count",
    "cascade.n_groups": "count",
    "cascade.bytes_per_iter": "B",
    "cascade.ops_per_byte": "op/B",
    "cascade.working_set_mb": "MB",
    "esri.batch_s": "s",
    **{f"esri.batch_s.{s}": "s" for s in SCENARIOS},
    "esri.chunks": "count",
    "esri.worker_cpu_s": "s",
    "esri.parallel_eff": "ratio",
    "analysis.s": "s",
    "tracing_overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_firms: int
    scenario: str
    workers: int = 1
    shock: bool = False      # one custom shock from a psi file instead of the batch
    analyze: bool = False    # run `prodrisk analyze` on the scores


WORKLOADS = {w.name: w for w in (
    Workload("batch-gl-5k", 5000, "gl", analyze=True),
    Workload("suite-all-3k-w2", 3000, "all", workers=min(2, os.cpu_count() or 1)),
    Workload("shock-100k", 100_000, "gl", shock=True),
)}


@dataclass
class Ledger:
    """Operations attempted and failed: CLI calls, cascades and checks."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run a child in its own process group; at the deadline kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += "\nkilled at the run deadline"
    return subprocess.CompletedProcess(cmd, proc.returncode, None, err)


# ---------------------------------------------------------------- inputs

def _is_physical(code: str) -> bool:
    """NACE 2-digit prefixes 01-45 are physical production."""
    return code[:2].isdigit() and 1 <= int(code[:2]) <= 45


def _write_psi(fixture: Path) -> int:
    """psi = 0 for every firm of the physical sector with the most firms."""
    with open(fixture / "firms.csv", encoding="utf-8", newline="") as fh:
        firms = [(row[0], row[1]) for row in list(csv.reader(fh))[1:]]
    counts: dict[str, int] = {}
    for _, code in firms:
        if _is_physical(code):
            counts[code] = counts.get(code, 0) + 1
    sector = min(counts, key=lambda c: (-counts[c], c))
    with open(fixture / "psi.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("firm_id,psi\n")
        fh.writelines(f"{fid},0.0\n" for fid, code in firms if code == sector)
    return counts[sector]


def ensure_inputs(wl: Workload, n: int, seed: int) -> tuple[Path, dict]:
    """Generated inputs of (workload, size, seed), made once and cached."""
    fixture = WORK / "inputs" / f"{wl.name}-n{n}-s{seed}"
    meta_path = fixture / "meta.json"
    if meta_path.is_file():
        meta = json.loads(meta_path.read_text())
        meta_path.touch()
        return fixture, dict(meta, cached=True)

    shutil.rmtree(fixture, ignore_errors=True)
    t0 = time.monotonic()
    proc = _run([sys.executable, "-m", "prodrisk.cli", "generate", "--n", str(n),
                 *GEN_ARGS, "--seed", str(seed), "--out-dir", str(fixture)])
    if proc.returncode != 0:
        raise RuntimeError(f"prodrisk generate failed: {proc.stderr.strip()}")
    meta = {"n_firms": n, "seed": seed}
    with open(fixture / "edges.csv", encoding="utf-8") as fh:
        meta["n_edges"] = sum(1 for _ in fh) - 1
    if wl.shock:
        meta["shocked_firms"] = _write_psi(fixture)
    meta["gen_s"] = time.monotonic() - t0
    meta_path.write_text(json.dumps(meta))
    _evict(wl)
    return fixture, dict(meta, cached=False)


def _evict(wl: Workload) -> None:
    metas = sorted((WORK / "inputs").glob(f"{wl.name}-n*/meta.json"),
                   key=lambda p: p.stat().st_mtime, reverse=True)
    for old in metas[CACHED_FIXTURES:]:
        shutil.rmtree(old.parent, ignore_errors=True)


def environment(wl: Workload, meta: dict) -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": None, "llc": None,
            "python": sys.version.split()[0], "blas_threads": 1, "workers": wl.workers}
    for pkg in ("numpy", "scipy"):
        info[pkg] = metadata.version(pkg)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), None)
        caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
        top = max(caches, key=lambda p: int((p / "level").read_text()))
        info["llc"] = f"L{(top / 'level').read_text().strip()} {(top / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    info.update({k: meta[k] for k in ("n_firms", "n_edges", "seed", "gen_s", "cached")})
    if "shocked_firms" in meta:
        info["shocked_firms"] = meta["shocked_firms"]
    return info


# ---------------------------------------------------------------- jobs

@dataclass
class Job:
    wall_s: float
    setup_s: float
    cascades_per_core_s: float
    peak_rss_mb: float
    cascades: int = 0
    iterations: int = 0
    T_max: int = 0
    nonconverged: int = 0
    results: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, wl: Workload, fixture: Path, ledger: Ledger, golden: dict | None):
        self.wl, self.fixture, self.ledger, self.golden = wl, fixture, ledger, golden
        self.out = WORK / "out" / wl.name
        self.recorded: dict | None = None

    def _esri_args(self) -> list[str]:
        args = ["esri", "--firms", str(self.fixture / "firms.csv"),
                "--edges", str(self.fixture / "edges.csv"), "--scenario", self.wl.scenario,
                "--workers", str(self.wl.workers), "--out-dir", str(self.out)]
        if self.wl.shock:
            args += ["--psi-file", str(self.fixture / "psi.csv")]
        return args

    def _call(self, mode: str, cli_args: list[str]) -> tuple[float, dict | None]:
        """Spawn one instrumented CLI call; (spawn time, its result or None)."""
        result_path = WORK / f"job-{self.wl.name}.json"
        result_path.unlink(missing_ok=True)
        t_spawn = time.monotonic()
        proc = _run([sys.executable, str(BENCH_DIR / "job.py"), str(result_path), mode,
                     *cli_args])
        res = json.loads(result_path.read_text()) if result_path.is_file() else None
        ok = proc.returncode == 0 and res is not None and res["exit_code"] == 0
        if not self.ledger.check(ok, f"prodrisk {cli_args[0]} ({mode}) failed: "
                                     f"{proc.stderr.strip()[-2000:]}"):
            return t_spawn, None
        return t_spawn, res

    def setup_probe(self) -> float | None:
        t_spawn, res = self._call("setup", self._esri_args())
        if res is None or not res["scoring"]:
            return None
        return res["scoring"][0]["start"] - t_spawn

    def full_job(self, mode: str) -> Job | None:
        shutil.rmtree(self.out, ignore_errors=True)
        t_spawn, res = self._call(mode, self._esri_args())
        if res is None:
            return None
        results = [res]
        if self.wl.analyze:
            _, ares = self._call(mode, ["analyze", "--esri", str(self.out / "esri.csv"),
                                        "--out-dir", str(self.out)])
            if ares is None:
                return None
            results.append(ares)
        rss_kb = max(r["maxrss_kb"] + r["maxrss_children_kb"] for r in results)
        scoring_s = sum(s["end"] - s["start"] for s in res["scoring"])
        job = Job(wall_s=results[-1]["t_end"] - t_spawn,
                  setup_s=res["scoring"][0]["start"] - t_spawn,
                  cascades_per_core_s=0.0,
                  peak_rss_mb=rss_kb / 1024, results=results)
        self._check_outputs(job, res.get("rescored", []))
        if self.wl.shock:
            # one cascade of ~0.2 s is too short to time alone: take the median
            # of it and its timed reruns with the same arguments
            job.cascades_per_core_s = 1.0 / statistics.median([scoring_s, *res.get("rerun_s", [])])
        elif scoring_s > 0:
            job.cascades_per_core_s = job.cascades / (scoring_s * self.wl.workers)
        return job

    def _check_outputs(self, job: Job, rescored: list[dict]) -> None:
        led = self.ledger
        tables: dict[str, list[list[str]]] = {}
        if self.wl.shock:
            names = ["h.csv"]
        elif self.wl.scenario == "all":
            names = [f"esri_{s}.csv" for s in SCENARIOS]
        else:
            names = ["esri.csv"]
        for name in names:
            path = self.out / name
            if not led.check(path.is_file(), f"{name} missing"):
                continue
            with open(path, encoding="utf-8", newline="") as fh:
                tables[name] = rows = list(csv.reader(fh))[1:]
            values = [float(v) for row in rows for v in row[1:(4 if self.wl.shock else 2)]]
            led.check(bool(values) and all(0.0 <= v <= 1.0 for v in values),
                      f"{name}: value outside [0, 1]")
            if not self.wl.shock:
                T = [int(row[2]) for row in rows]
                job.cascades += len(rows)
                job.iterations += sum(T)
                job.T_max = max(job.T_max, max(T, default=0))
                job.nonconverged += sum(row[3] != "true" for row in rows)

        summary_path = self.out / "summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
        if self.wl.shock and led.check("T" in summary, "summary.json missing"):
            job.cascades, job.iterations, job.T_max = 1, summary["T"], summary["T"]
            job.nonconverged = int(not summary["converged"])
        # every cascade is one operation; one that did not converge failed
        led.attempted += job.cascades
        led.failed += job.nonconverged
        if job.nonconverged:
            led.messages.append(f"{job.nonconverged} cascades did not converge")

        for row in rescored:
            table = tables.get(row["file"], [])
            i = row["index"]
            got = table[i][1:1 + len(row["fields"])] if i < len(table) else None
            led.check(got == row["fields"],
                      f"{row['file']} row {i}: batch {got} != rescored {row['fields']}")

        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(self.out.iterdir()) if p.is_file()}
        if self.golden is not None:
            for name, want in sorted(self.golden.items()):
                led.check(digests.get(name) == want, f"{name}: sha256 differs from golden")
        if self.recorded is None:
            self.recorded = digests


def measure(runner: Runner, seconds: float, setup_probes: bool) -> tuple[list[Job], list[float]]:
    """Full jobs until `seconds` is used up (at least one), then set-up samples.

    A set-up sample comes from a probe that stops at the entry into scoring,
    or from one more full job where set-up is most of a job anyway.
    """
    jobs: list[Job] = []
    t0 = time.monotonic()
    while True:
        job = runner.full_job("run")
        if job is None:
            break
        jobs.append(job)
        elapsed = time.monotonic() - t0
        if elapsed + job.wall_s > seconds or elapsed > HARD_STOP_S:
            break
    setups = [j.setup_s for j in jobs]
    while (setup_probes and jobs and len(setups) < MIN_SETUP_SAMPLES
           and time.monotonic() - t0 < HARD_STOP_S):
        if jobs[0].setup_s > jobs[0].wall_s / 2:
            job = runner.full_job("run")
            if job is None:
                break
            jobs.append(job)
            setups.append(job.setup_s)
            continue
        s = runner.setup_probe()
        if s is None:
            break
        setups.append(s)
    return jobs, setups


# ---------------------------------------------------------------- metrics

def end_to_end(jobs: list[Job], setups: list[float]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(j.wall_s for j in jobs),
        "setup_s": med(setups),
        "cascades_per_core_s": med(j.cascades_per_core_s for j in jobs),
        "peak_rss_mb": med(j.peak_rss_mb for j in jobs),
    }


def per_layer(traced: Job, untraced_wall: float, workers: int) -> dict[str, float]:
    spans = [s for r in traced.results for s in r["spans"]]
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        count[s["name"]] = count.get(s["name"], 0) + 1
    dur = total.get
    cli_self = 0.0  # each cli.main span minus its direct children (parent is an index)
    for r in traced.results:
        for i, root in enumerate(r["spans"]):
            if root["name"] == "cli.main":
                cli_self += root["end"] - root["start"] - sum(
                    c["end"] - c["start"] for c in r["spans"] if c["parent"] == i)
    batches = [s for s in spans if s["name"] == "esri.esri_all"]
    batch_s = sum(s["end"] - s["start"] for s in batches)
    worker_cpu = sum(s["worker_cpu_s"] for s in batches)
    pool_wall = sum((s["end"] - s["start"]) * s["workers"] for s in batches)
    scoring_s = batch_s if batches else dur("cascade.run_cascade", 0.0)
    replay = traced.results[0].get("replay") or {}

    m = {
        "cli.self_s": cli_self,
        "netcore.build_network_s": dur("netcore.build_network", 0.0),
        "netcore.fingerprint_s": dur("netcore.fingerprint", 0.0),
        "netcore.fingerprint_calls": count.get("netcore.fingerprint", 0),
        "prodfun.assign_scenario_s": dur("prodfun.assign_scenario", 0.0),
        "prodfun.calibrate_s": dur("prodfun.calibrate", 0.0),
        "cascade.build_impact_s": (dur("cascade.build_impact_matrices", 0.0)
                                   + dur("cascade.rescale_for_coverage", 0.0)),
        "cascade.cascades": traced.cascades,
        "cascade.iterations": traced.iterations,
        "cascade.T_mean": traced.iterations / traced.cascades,
        "cascade.T_max": traced.T_max,
        "cascade.nonconverged": traced.nonconverged,
        "cascade.iter_us": scoring_s * workers / traced.iterations * 1e6,
        "esri.batch_s": batch_s,
        "esri.chunks": sum(s["chunks"] for s in batches),
        "esri.worker_cpu_s": worker_cpu,
        "esri.parallel_eff": worker_cpu / pool_wall if pool_wall else 0.0,
        "analysis.s": sum(v for k, v in total.items() if k.startswith("analysis.")),
        "tracing_overhead_frac": traced.wall_s / untraced_wall - 1.0,
    }
    for scen in SCENARIOS:
        m[f"esri.batch_s.{scen}"] = sum(s["end"] - s["start"] for s in batches
                                        if s["scenario"] == scen)
    for k in ("down_spmv_us", "up_spmv_us", "sector_sum_us", "group_min_us", "nnz_down",
              "nnz_up", "n_groups", "bytes_per_iter", "ops_per_byte", "working_set_mb"):
        m[f"cascade.{k}"] = replay.get(k, 0)
    return m


# ---------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n-firms", type=int, default=None,
                    help="override the workload's firm count (smoke tests)")
    ap.add_argument("--record-golden", action="store_true",
                    help="store the output sha256s of this size and seed in golden.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "prodrisk" / "cli.py").is_file():
        print(f"error: no prodrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    n = args.n_firms or wl.n_firms
    WORK.mkdir(exist_ok=True)
    fixture, meta = ensure_inputs(wl, n, args.seed)

    key = f"{wl.name}/n{n}/seed{args.seed}"
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    ledger = Ledger()
    runner = Runner(wl, fixture, ledger,
                    None if args.record_golden else golden_all.get(key))
    print("info " + json.dumps({"workload": wl.name, **environment(wl, meta)}))

    jobs, setups = measure(runner, args.seconds, setup_probes=not args.trace)
    metrics: dict[str, float] = {}
    if jobs and args.trace:
        traced = runner.full_job("trace")
        if traced is not None:
            metrics = per_layer(traced, statistics.median(j.wall_s for j in jobs),
                                wl.workers)
    elif jobs:
        metrics = end_to_end(jobs, setups)

    if args.record_golden and ledger.failed == 0 and runner.recorded:
        golden_all[key] = runner.recorded
        GOLDEN.write_text(json.dumps(golden_all, indent=2, sort_keys=True) + "\n")

    units = PER_LAYER if args.trace else END_TO_END
    correct = ledger.failed == 0 and set(metrics) == set(units)
    for msg in ledger.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"jobs {len(jobs)}, set-up samples {len(setups)}, "
          f"wall_s per job {[round(j.wall_s, 3) for j in jobs]}")
    for name in units:
        if name in metrics:
            print(f"{name:28s} {metrics[name]:>14.6g} {units[name]}")
    print(f"{'fail_frac':28s} {ledger.failed / max(ledger.attempted, 1):>14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
