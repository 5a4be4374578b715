"""Run one prodrisk CLI call in this process, instrumented from outside.

    python3 perfbench/job.py RESULT_JSON MODE PRODRISK_ARG...

PRODRISK_ARG... are the arguments of the ``prodrisk`` command. MODE is one of

``run``
    One timestamp wrapper on the entry into scoring (``esri_all``,
    ``scenario_suite`` or ``run_cascade`` as ``prodrisk.cli`` calls them).
    After the CLI returns, a fixed sample of firms is rescored for the
    correctness gate.
``setup``
    As ``run``, but the call stops at the entry into scoring.
``trace``
    A span around every public library call the CLI makes, named after the
    module that defines it, then a replay of the cascade kernels of the
    ``gl`` operators on a mid-cascade state.

Nothing inside ``prodrisk`` changes: the wrappers replace the names in the
modules that call them. Timestamps are ``time.monotonic()``, which on Linux
is the system-wide CLOCK_MONOTONIC and so comparable with the parent's. The
result JSON also holds peak RSS (this process plus its largest worker).
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import statistics
import sys
import time

SAMPLE_FIRMS = 8  # firms rescored per scenario, evenly spaced over the index range
SHOCK_RERUNS = 10  # timed reruns of a custom shock, too short to time once

# public names the CLI calls, with the module that defines each one
CLI_CALLS = {
    "build_network": "netcore", "assign_scenario": "prodfun", "calibrate": "prodfun",
    "build_impact_matrices": "cascade", "rescale_for_coverage": "cascade",
    "esri_all": "esri", "scenario_suite": "esri", "run_cascade": "cascade",
    "rank_profile": "analysis", "detect_plateau": "analysis",
    "count_above_thresholds": "analysis", "fit_powerlaw_mle": "analysis",
}
# public names scenario_suite and esri_all call inside prodrisk.esri
ESRI_CALLS = {
    "assign_scenario": "prodfun", "calibrate": "prodfun",
    "build_impact_matrices": "cascade", "rescale_for_coverage": "cascade",
    "esri_all": "esri", "fingerprint": "netcore",
}
SCORING = ("esri_all", "scenario_suite", "run_cascade")


class _StopAtScoring(Exception):
    """Raised at the entry into scoring in ``setup`` mode."""


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return dict(ba.arguments)


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the job ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, label, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": label, "parent": self._stack[-1] if self._stack else None}
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
                if after is not None:
                    after(span)
        return traced


def _esri_hooks(fn):
    """Count chunks through esri_all's progress callback; take CPU deltas."""

    def before(span, args, kwargs):
        bound = _bound(fn, args, kwargs)
        workers = int(bound["worker_count"])
        span.update(scenario=bound["params"].spec.scenario.value, workers=workers, chunks=0)
        user_progress = bound["progress"]

        def progress(done, n):
            span["chunks"] += 1
            if user_progress is not None:
                user_progress(done, n)

        kwargs = dict(kwargs, progress=progress)
        span["_who"] = resource.RUSAGE_CHILDREN if workers > 1 else resource.RUSAGE_SELF
        span["_cpu0"] = _cpu_s(span["_who"])
        return args, kwargs

    def after(span):
        span["worker_cpu_s"] = _cpu_s(span.pop("_who")) - span.pop("_cpu0")

    return before, after


def _install_trace(cli, esri, tracer: Tracer) -> None:
    for module, calls in ((cli, CLI_CALLS), (esri, ESRI_CALLS)):
        for name, layer in calls.items():
            fn = getattr(module, name)
            before = after = None
            if name == "esri_all":
                before, after = _esri_hooks(fn)
            setattr(module, name, tracer.wrap(f"{layer}.{name}", fn, before, after))


def _install_scoring(cli, esri, record: dict, stop: bool) -> None:
    """Entry/exit timestamps on scoring; keep the arguments of every batch."""

    def watch(module, name, timed):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            entry = {"name": name, "start": time.monotonic()}
            if name != "scenario_suite":
                record["calls"].append(_bound(fn, args, kwargs))
            if not timed:
                return fn(*args, **kwargs)
            record["scoring"].append(entry)
            if stop:
                raise _StopAtScoring
            try:
                return fn(*args, **kwargs)
            finally:
                entry["end"] = time.monotonic()
        setattr(module, name, watched)

    for name in SCORING:
        watch(cli, name, timed=True)
    # scenario_suite reaches its batches through prodrisk.esri
    watch(esri, "esri_all", timed=False)


def _sample(n: int) -> list[int]:
    return sorted({round(k * (n - 1) / (SAMPLE_FIRMS - 1)) for k in range(SAMPLE_FIRMS)})


def _rescore(calls, suite: bool) -> tuple[list[dict], list[float]]:
    """Rescore a fixed firm sample of every batch, or rerun the custom shock.

    Returns the sampled rows and the duration of each custom-shock rerun.
    """
    from prodrisk import esri_single, run_cascade

    rows, rerun_s = [], []
    for a in calls:
        if "psi" in a:  # custom shock: rerun it and report the sampled levels
            for _ in range(SHOCK_RERUNS):
                t0 = time.monotonic()
                res = run_cascade(a["net"], a["matrices"], a["params"], a["psi"],
                                  epsilon=a["epsilon"], max_iter=a["max_iter"])
                rerun_s.append(time.monotonic() - t0)
            for i in _sample(a["net"].n):
                rows.append({"file": "h.csv", "index": i, "fields": [
                    repr(float(res.h_d_final[i])), repr(float(res.h_u_final[i])),
                    repr(float(res.h_final[i]))]})
            continue
        scen = a["params"].spec.scenario.value
        name = f"esri_{scen}.csv" if suite else "esri.csv"
        for i in _sample(a["net"].n):
            value, res = esri_single(a["net"], a["matrices"], a["params"], i,
                                     epsilon=a["epsilon"], max_iter=a["max_iter"])
            rows.append({"file": name, "index": i, "fields": [
                repr(float(value)), str(int(res.T)), "true" if res.converged else "false"]})
    return rows, rerun_s


def _per_call_us(fn, min_block_s: float = 0.01, blocks: int = 7) -> float:
    """Median time of one call, from blocks of calls that each last min_block_s."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= min_block_s:
            break
        reps *= 2
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def _replay(calls) -> dict | None:
    """Time the four kernels of one iteration on the gl operators, mid-cascade.

    The state is the middle iterate of the cascade the workload itself runs
    (its custom shock) or, for a batch, of the failure of the firm with the
    largest out-strength. Byte counts are computed from the operator arrays,
    not measured: the CSR streams of the three products plus the group
    minimum; the elementwise vector updates are left out.
    """
    import numpy as np
    from prodrisk import run_cascade

    gl = [a for a in calls if a["params"].spec.scenario.value == "gl"]
    if not gl:
        return None
    a = gl[0]
    m = a["matrices"]
    psi = a.get("psi")
    if psi is None:
        psi = np.ones(m.n)
        psi[int(np.argmax(m.s_out))] = 0.0
    res = run_cascade(a["net"], m, a["params"], psi, epsilon=a["epsilon"],
                      max_iter=a["max_iter"], record_trace=True)
    state = res.trace[max(1, len(res.trace) // 2)]
    q = state.sigma * (1.0 - state.h_d)
    pit = state.pi_tilde

    def csr_bytes(op, x_len):
        rows = op.shape[0]
        return (op.nnz * (op.data.itemsize + op.indices.itemsize)
                + (rows + 1) * op.indptr.itemsize + 8 * (x_len + rows))

    ops = (m.down_op, m.up_op, m.sector_op)
    seg = m.seg_starts
    bytes_iter = (sum(csr_bytes(op, m.n) for op in ops)
                  + 8 * m.n_groups + seg.nbytes + 8 * len(seg))
    flops = 2 * sum(op.nnz for op in ops) + m.n_groups
    working_set = (sum(op.data.nbytes + op.indices.nbytes + op.indptr.nbytes for op in ops)
                   + seg.nbytes + 8 * m.n_groups + 8 * 6 * m.n)
    return {
        "down_spmv_us": _per_call_us(lambda: m.down_op @ q),
        "up_spmv_us": _per_call_us(lambda: m.up_op @ state.h_u),
        "sector_sum_us": _per_call_us(lambda: m.sector_op @ state.h_d),
        "group_min_us": _per_call_us(lambda: np.minimum.reduceat(pit, seg)),
        "nnz_down": int(m.down_op.nnz),
        "nnz_up": int(m.up_op.nnz),
        "n_groups": int(m.n_groups),
        "bytes_per_iter": int(bytes_iter),
        "ops_per_byte": flops / bytes_iter,
        "working_set_mb": working_set / 2**20,
    }


def main(argv: list[str]) -> int:
    result_path, mode, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("run", "setup", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    from prodrisk import cli, esri

    record: dict = {"scoring": [], "calls": []}
    tracer = Tracer()
    if mode == "trace":
        _install_trace(cli, esri, tracer)
    _install_scoring(cli, esri, record, stop=(mode == "setup"))
    run = tracer.wrap("cli.main", cli.main) if mode == "trace" else cli.main

    try:
        code = run(cli_args)
    except _StopAtScoring:
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    t_end = time.monotonic()
    out = {
        "exit_code": code,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "scoring": record["scoring"],
    }
    calls = record["calls"]
    if code == 0 and mode == "run":
        suite = any(s["name"] == "scenario_suite" for s in record["scoring"])
        out["rescored"], out["rerun_s"] = _rescore(calls, suite)
    if mode == "trace":
        out["spans"] = tracer.spans
        if code == 0 and calls:
            out["replay"] = _replay(calls)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
