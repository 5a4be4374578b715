"""Command line: generate, filter, score, and analyze production networks.

Every subcommand is deterministic for a fixed input and seed; reruns write
byte-identical files. Exit codes: 0 success, 1 bad usage, parameters or file
access, 2 unusable input data, 3 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import datetime
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .netcore import (DataError, NetworkError, SyntheticConfig,
                      TransactionEvent, build_network, filter_long_term_links,
                      generate_synthetic)
from .prodfun import Scenario, assign_scenario, calibrate
from .cascade import build_impact_matrices, rescale_for_coverage, run_cascade
from .esri import _loss_weighted, _total_out, esri_all, scenario_suite
from .analysis import (DEFAULT_THRESHOLDS, count_above_thresholds, detect_plateau,
                       fit_powerlaw_mle, rank_profile, sector_shock_experiment,
                       year_over_year)

# emitted with every score report; states the modelling assumption behind the index
CAVEAT = ("Scores measure worst-case propagation: no substitute suppliers outside "
          "the recorded network and no replacement demand appear while a cascade unfolds.")

FIRMS_HEADER = ["firm_id", "nace4", "revenue", "material_cost"]
EDGES_HEADER = ["supplier_id", "buyer_id", "weight"]
TRANSACTIONS_HEADER = ["supplier_id", "buyer_id", "date", "amount"]
ESRI_HEADER = ["firm_id", "esri", "T", "converged"]
PSI_HEADER = ["firm_id", "psi"]
_BLOCK_BYTES = 1 << 16  # bytes of a table read at once, cut at a newline


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def _fmt(x: float) -> str:
    """Full-precision decimal rendering, round-trip exact."""
    return repr(float(x))


def _out_dir(args) -> Path:
    """The --out-dir path, which the writes create; ValueError when it or its
    nearest existing ancestor is a file, so a long run fails before its work."""
    out = Path(args.out_dir)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ValueError(f"--out-dir {args.out_dir}: not a directory")
    return out


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_blocks(path, header: Sequence[str]
                 ) -> Iterator[tuple[Sequence[int], list[Sequence[str]]]]:
    """Blocks of rows of a CSV file with the given header, as (line numbers, columns).

    The header row is optional so hand-made fixtures stay minimal; when the
    first row is not the header it must already be data. One leading UTF-8
    byte order mark, as spreadsheet programs write, is skipped. Blank rows
    are skipped and an empty file is an empty table. Line numbers count the rows
    csv.reader makes of the file. A wrong field count, a byte that is not
    UTF-8 or a row csv.reader rejects (such as one with a field longer than
    csv.field_size_limit()) raises a DataError with its line number, once
    the rows before it are yielded.

    The file is read in blocks of about _BLOCK_BYTES, cut at a newline. A
    block without a quote, NUL byte or CR other than one right before a
    newline, without a blank line or a line longer than
    csv.field_size_limit(), and with the header's field count on every line
    is what csv.reader reads as split on newlines and commas once each CRLF
    is made a LF, so a block that is also UTF-8 is split that way. From the
    first block that is not, the rest of the file goes through csv.reader.
    """
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"{path}: no such file")
    header = list(header)
    k = len(header)
    block_size = _BLOCK_BYTES
    with open(p, "rb") as fh:
        lineno = 0  # rows read so far
        while True:
            start = fh.tell()
            buf = fh.read(block_size)
            if not buf:
                return
            if not buf.endswith(b"\n"):
                buf += fh.readline()
                if not buf.endswith(b"\n"):  # the last line has no newline
                    buf += b"\n"
            if start == 0:
                buf = buf.removeprefix(codecs.BOM_UTF8)
            buf = buf.replace(b"\r\n", b"\n")  # a CRLF line end reads as a LF one
            try:
                text = buf.decode("utf-8")
            except UnicodeDecodeError:  # csv.reader finds the row of the bad byte
                break
            n_lines = _plain_lines(buf, k)
            if n_lines is None:
                break
            fields = text.replace("\n", ",").split(",")
            del fields[-1]  # after the final newline
            skip = lineno == 0 and fields[:k] == header
            if skip:
                del fields[:k]
            if fields:
                yield (range(lineno + 1 + skip, lineno + n_lines + 1),
                       [fields[j::k] for j in range(k)])
            lineno += n_lines

        fh.seek(start)
        rows_per_block = max(1, block_size // 32)
        lines: list[int] = []
        rows: list[list[str]] = []
        try:
            for lineno, row in enumerate(
                    csv.reader(io.TextIOWrapper(fh, encoding="utf-8-sig" if start == 0 else "utf-8",
                                                errors="surrogateescape", newline="")),
                    start=lineno + 1):
                if not row or (lineno == 1 and row == header):
                    continue
                if len(row) != k:
                    raise DataError(f"{path} line {lineno}: expected {k} fields, got {len(row)}")
                try:
                    ",".join(row).encode("utf-8")  # an undecodable byte is a lone surrogate here
                except UnicodeEncodeError:
                    raise DataError(f"{path} line {lineno}: not UTF-8 text") from None
                lines.append(lineno)
                rows.append(row)
                if len(rows) == rows_per_block:
                    yield lines, list(zip(*rows))
                    lines, rows = [], []
        except (DataError, csv.Error) as exc:
            if rows:
                yield lines, list(zip(*rows))
            if isinstance(exc, csv.Error):  # csv.reader made rows up to lineno, not the next
                raise DataError(f"{path} line {lineno + 1}: {exc}") from None
            raise
        if rows:
            yield lines, list(zip(*rows))


def _plain_lines(buf: bytes, k: int) -> int | None:
    """Line count of a block that csv.reader reads as split on newlines and
    commas into k fields a line, else None. buf ends with a newline. A blank
    line has no comma, so it fails the count for the k >= 2 of every table."""
    if b'"' in buf or b"\r" in buf or b"\0" in buf:
        return None
    a = np.frombuffer(buf, dtype=np.uint8)
    newlines = np.flatnonzero(a == 10)
    commas = np.searchsorted(np.flatnonzero(a == 44), newlines)  # before each newline
    if (np.diff(commas, prepend=0) != k - 1).any():
        return None
    if np.diff(newlines, prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    return len(newlines)


def _read_rows(path, header: Sequence[str]) -> Iterator[tuple[int, Sequence[str]]]:
    """The rows of _read_blocks one at a time, as (line number, fields)."""
    for lines, columns in _read_blocks(path, header):
        yield from zip(lines, zip(*columns))


def _parse_float(path, lineno: int, label: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{path} line {lineno}: bad {label} {text!r}") from None


def _parse_amount(path, lineno: int, label: str, text: str) -> float:
    """A figure that must be finite and >= 0."""
    value = _parse_float(path, lineno, label, text)
    if not (math.isfinite(value) and value >= 0):
        raise DataError(f"{path} line {lineno}: {label} must be finite and >= 0, got {text!r}")
    return value


def _parse_income(path, lineno: int, label: str, text: str) -> float | None:
    """An optional income-statement figure: empty, or finite and >= 0."""
    return None if text == "" else _parse_amount(path, lineno, label, text)


def _amounts(texts: Sequence[str]) -> np.ndarray:
    """A column of figures; ValueError unless each is a number, finite and >= 0."""
    values = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
    if not ((values >= 0).all() and np.isfinite(values).all()):
        raise ValueError("figure not finite and >= 0")
    return values


def _incomes(texts: Sequence[str]) -> list[float | None]:
    """A column of optional figures, None where empty; ValueError as _amounts."""
    given = np.fromiter(map(bool, texts), dtype=bool, count=len(texts))
    values = np.full(len(texts), None, dtype=object)
    values[given] = _amounts(list(compress(texts, given))).tolist()
    return values.tolist()


def _first_bad_row(path, lines: Sequence[int], columns, parsers) -> NoReturn:
    """Raise the DataError of a block's first bad figure in file order.

    The column parsers only say that a block holds a bad figure; row by row,
    each column checked with its (parser, label) in turn, names the line.
    """
    for lineno, *texts in zip(lines, *columns):
        for (parse, label), text in zip(parsers, texts):
            parse(path, lineno, label, text)
    raise AssertionError("a column parser rejected a block whose rows all parse")


def _read_firms(path) -> list[tuple[str, str, float | None, float | None]]:
    incomes = ((_parse_income, "revenue"), (_parse_income, "material_cost"))
    firms: list[tuple] = []
    for lines, (ids, codes, revenues, costs) in _read_blocks(path, FIRMS_HEADER):
        try:
            figures = _incomes(revenues), _incomes(costs)
        except ValueError:
            _first_bad_row(path, lines, (revenues, costs), incomes)
        firms += zip(ids, codes, *figures)
    return firms


def _read_edges(path) -> Iterator[tuple[Sequence[str], Sequence[str], np.ndarray]]:
    """Edge column blocks (supplier ids, buyer ids, weights) streamed from the
    file; weights must be finite and >= 0."""
    for lines, (sids, bids, weights) in _read_blocks(path, EDGES_HEADER):
        try:
            w = _amounts(weights)
        except ValueError:
            _first_bad_row(path, lines, (weights,), ((_parse_amount, "weight"),))
        yield sids, bids, w


def _read_transactions(path) -> list[TransactionEvent]:
    events = []
    for lineno, (sid, bid, date_text, amount_text) in _read_rows(path, TRANSACTIONS_HEADER):
        try:
            date = datetime.date.fromisoformat(date_text)
        except ValueError:
            raise DataError(f"{path} line {lineno}: bad date {date_text!r}") from None
        amount = _parse_float(path, lineno, "amount", amount_text)
        if not math.isfinite(amount) or amount <= 0:
            raise DataError(f"{path} line {lineno}: amount must be positive, got {amount_text!r}")
        events.append(TransactionEvent(sid, bid, date, amount))
    return events


def _read_psi(path) -> dict[str, float]:
    psi: dict[str, float] = {}
    for lineno, (fid, value_text) in _read_rows(path, PSI_HEADER):
        value = _parse_float(path, lineno, "psi", value_text)
        if not 0.0 <= value <= 1.0:
            raise DataError(f"{path} line {lineno}: psi must lie in [0, 1]")
        if fid in psi:
            raise DataError(f"{path} line {lineno}: duplicate firm_id {fid!r}")
        psi[fid] = value
    return psi


@dataclass(frozen=True)
class _LoadedVector:
    """Risk vector read back from esri.csv; enough for the analysis ops."""

    firm_ids: tuple[str, ...]
    values: np.ndarray


def _read_esri(path) -> _LoadedVector:
    ids: list[str] = []
    values: list[float] = []
    seen: set[str] = set()
    for lineno, (fid, value_text, _t, _conv) in _read_rows(path, ESRI_HEADER):
        if fid in seen:
            raise DataError(f"{path} line {lineno}: duplicate firm_id {fid!r}")
        seen.add(fid)
        ids.append(fid)
        values.append(_parse_amount(path, lineno, "esri", value_text))
    if not ids:
        raise DataError(f"{path}: no rows")
    return _LoadedVector(tuple(ids), np.asarray(values))


def _load_network(args):
    return build_network(_read_firms(args.firms), _read_edges(args.edges))


def _prepare(net, scenario: Scenario):
    """Params and impact matrices of one scenario."""
    spec = assign_scenario(net, scenario)
    params = calibrate(net, spec)
    matrices = rescale_for_coverage(build_impact_matrices(net, spec), net)
    return params, matrices


def cmd_generate(args) -> int:
    config = SyntheticConfig(
        n_firms=args.n, n_sectors=args.sectors, mean_out_degree=args.mean_out_degree,
        weight_mu=args.weight_mu, weight_sigma=args.weight_sigma,
        share_physical_sectors=args.share_physical, coverage=args.coverage)
    firms, edges = generate_synthetic(config, args.seed)
    out = _out_dir(args)
    _write_csv(out / "firms.csv", FIRMS_HEADER,
               ([fid, code, _fmt(revenue), _fmt(cost)] for fid, code, revenue, cost in firms))
    _write_csv(out / "edges.csv", EDGES_HEADER,
               ([sid, bid, _fmt(w)] for sid, bid, w in edges))
    print(f"wrote {len(firms)} firms and {len(edges)} edges to {out}")
    return 0


def cmd_filter(args) -> int:
    events = _read_transactions(args.transactions)
    kept = filter_long_term_links(events)

    pairs = {(e.supplier_id, e.buyer_id) for e in events if e.supplier_id != e.buyer_id}
    total_volume = sum(e.amount for e in events if e.supplier_id != e.buyer_id)
    kept_volume = sum(w for _, _, w in kept)
    link_fraction = len(kept) / len(pairs) if pairs else 0.0
    volume_fraction = kept_volume / total_volume if total_volume > 0 else 0.0

    out = _out_dir(args)
    _write_csv(out / "edges.csv", EDGES_HEADER,
               ([sid, bid, _fmt(w)] for sid, bid, w in kept))
    print(f"pairs kept: {len(kept)} of {len(pairs)} (fraction {_fmt(link_fraction)})")
    print(f"volume kept: {_fmt(kept_volume)} of {_fmt(total_volume)} "
          f"(fraction {_fmt(volume_fraction)})")
    return 0


def _esri_rows(vec):
    return zip(vec.firm_ids, map(repr, vec.values.tolist()), map(str, vec.T.tolist()),
               np.where(vec.converged, "true", "false").tolist())


def _scenario_summary(vec) -> dict:
    bad = [fid for fid, ok in zip(vec.firm_ids, vec.converged) if not ok]
    return {
        "mean_esri": float(np.mean(vec.values)),
        "median_esri": float(np.median(vec.values)),
        "max_esri": float(np.max(vec.values)),
        "n_non_converged": len(bad),
        "non_converged": bad,
    }


def _progress_printer():
    """Progress callback for a batch: firms done of the total, rate and ETA, on stderr."""
    start = time.monotonic()

    def report(done: int, total: int) -> None:
        rate = done / max(time.monotonic() - start, 1e-9)
        print(f"progress: {done}/{total} firms, {rate:.1f} firms/s, "
              f"ETA {(total - done) / rate:.1f} s", file=sys.stderr, flush=True)
    return report


def cmd_esri(args) -> int:
    if args.psi_file is not None and args.scenario == "all":
        raise ValueError("--psi-file needs a single scenario, not 'all'")
    out = _out_dir(args)
    # a bad psi file fails before the network is read
    shock = _read_psi(args.psi_file) if args.psi_file is not None else None
    net = _load_network(args)

    if shock is not None:
        total_out = _total_out(net.s_out)
        psi = np.ones(net.n)
        for fid, value in shock.items():
            idx = net.index_of.get(fid)
            if idx is None:
                raise DataError(f"{args.psi_file}: unknown firm_id {fid!r}")
            psi[idx] = value
        params, matrices = _prepare(net, Scenario(args.scenario))
        result = run_cascade(net, matrices, params, psi,
                             epsilon=args.epsilon, max_iter=args.max_iter)
        _write_csv(out / "h.csv", ["firm_id", "h_d", "h_u", "h"],
                   zip(net.firm_ids, map(repr, result.h_d_final.tolist()),
                       map(repr, result.h_u_final.tolist()), map(repr, result.h_final.tolist())))
        loss = _loss_weighted(net.s_out, total_out, result.h_final)
        _write_json(out / "summary.json", {
            "caveat": CAVEAT,
            "mode": "custom_shock",
            "scenario": args.scenario,
            "epsilon": args.epsilon,
            "max_iter": args.max_iter,
            "n_firms": net.n,
            "n_edges": net.n_edges,
            "T": result.T,
            "converged": result.converged,
            "weighted_loss": loss,
        })
        print(f"wrote {out / 'h.csv'} (weighted loss {_fmt(loss)})")
        if args.strict and not result.converged:
            print("error: cascade did not converge", file=sys.stderr)
            return 3
        return 0

    progress = _progress_printer() if args.progress else None
    if args.scenario == "all":
        suite = scenario_suite(net, epsilon=args.epsilon, max_iter=args.max_iter,
                               worker_count=args.workers, progress=progress)
        vectors = {scen.value: vec for scen, vec in suite.items()}
        for name, vec in vectors.items():
            _write_csv(out / f"esri_{name}.csv", ESRI_HEADER, _esri_rows(vec))
    else:
        scen = Scenario(args.scenario)
        params, matrices = _prepare(net, scen)
        vec = esri_all(net, matrices, params, epsilon=args.epsilon,
                       max_iter=args.max_iter, worker_count=args.workers, progress=progress)
        vectors = {scen.value: vec}
        _write_csv(out / "esri.csv", ESRI_HEADER, _esri_rows(vec))

    any_vec = next(iter(vectors.values()))
    _write_json(out / "summary.json", {
        "caveat": CAVEAT,
        "epsilon": args.epsilon,
        "max_iter": args.max_iter,
        "n_firms": net.n,
        "n_edges": net.n_edges,
        "network_fingerprint": any_vec.network_fingerprint,
        "scenarios": {name: _scenario_summary(vec) for name, vec in vectors.items()},
    })
    n_bad = sum(int(np.sum(~vec.converged)) for vec in vectors.values())
    print(f"scored {net.n} firms under {len(vectors)} scenario(s) into {out}")
    if n_bad:
        print(f"warning: {n_bad} cascades did not converge", file=sys.stderr)
        if args.strict:
            return 3
    return 0


def cmd_analyze(args) -> int:
    thresholds = DEFAULT_THRESHOLDS
    if args.thresholds is not None:
        try:
            thresholds = tuple(float(t) for t in args.thresholds.split(","))
        except ValueError:
            raise ValueError(f"--thresholds {args.thresholds!r}: expected comma-separated "
                             "numbers") from None
    vec = _read_esri(args.esri)
    # the thresholds, the plateau tolerance and the tail window are checked
    # before any file is written
    counts = count_above_thresholds(vec.values, thresholds)
    profile = rank_profile(vec)
    plateau = detect_plateau(profile, rel_tol=args.rel_tol)
    x_min, x_max = args.x_min, args.x_max
    if x_min is None or x_max is None:
        positive = vec.values[vec.values > 0]
        if positive.size < 2 or float(positive.min()) == float(positive.max()):
            raise DataError("cannot choose a tail window: need at least two "
                            "distinct positive values, or pass --x-min/--x-max")
        if x_min is None:
            x_min = float(positive.min())
        if x_max is None:
            x_max = float(positive.max())
    fit = fit_powerlaw_mle(vec.values, x_min, x_max)
    out = _out_dir(args)

    _write_csv(out / "profile.csv", ["rank", "firm_id", "esri"],
               ([str(r), fid, _fmt(v)]
                for r, fid, v in zip(profile.ranks, profile.firm_ids, profile.values)))
    _write_json(out / "plateau.json", {
        "size": plateau.size, "level": plateau.level, "rel_tol": args.rel_tol})

    _write_json(out / "thresholds.json", {
        "thresholds": list(thresholds), "counts": list(counts)})

    _write_json(out / "powerlaw.json", {
        "alpha_hat": fit.alpha_hat, "x_min": fit.x_min, "x_max": fit.x_max,
        "n_used": fit.n_used, "coverage": fit.coverage})

    print(f"profile of {len(profile)} firms, plateau size {plateau.size}, "
          f"tail exponent {_fmt(fit.alpha_hat)}")
    return 0


def cmd_sector_experiment(args) -> int:
    if not args.magnitude <= 1.0:
        raise ValueError(f"--magnitude {args.magnitude!r}: must lie in (0, 1]")
    scenarios: list[dict[str, float]] = []
    labels: list[str] = []
    for item in args.firm_shock or []:
        fid, sep, frac_text = item.partition("=")
        if not sep or not fid:
            raise ValueError(f"--firm-shock expects ID=FRACTION, got {item!r}")
        try:
            fraction = float(frac_text)
        except ValueError:
            raise ValueError(f"--firm-shock {item!r}: FRACTION must be a number") from None
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"--firm-shock {item!r}: FRACTION must lie in [0, 1]")
        scenarios.append({fid: 1.0 - fraction})
        labels.append(fid)

    out = _out_dir(args)
    net = _load_network(args)
    _, matrices = _prepare(net, Scenario(args.scenario))
    report = sector_shock_experiment(
        net, matrices, args.sector, args.magnitude, scenarios,
        labels=labels, epsilon=args.epsilon, max_iter=args.max_iter)

    k = len(report.labels)
    header = (["sector", "received_ref"]
              + [f"received_scenario_{i + 1}" for i in range(k)]
              + ["rel_dev_ref"] + [f"rel_dev_{i + 1}" for i in range(k)])
    rows = []
    for s, sector in enumerate(report.sectors):
        rows.append([sector, _fmt(report.received_ref[s])]
                    + [_fmt(report.received[i, s]) for i in range(k)]
                    + [_fmt(1.0)] + [_fmt(report.rel_dev[i, s]) for i in range(k)])
    _write_csv(out / "sector_report.csv", header, rows)

    print(f"sector {args.sector}: reference plus {k} scenario(s) "
          f"over {len(report.sectors)} sectors")
    if report.deviation_correlation is not None:
        for a in range(k):
            for b in range(a + 1, k):
                r = report.deviation_correlation[a, b]
                print(f"deviation correlation {report.labels[a]} vs {report.labels[b]}: "
                      f"{_fmt(r)}")
    if args.strict and not report.converged:
        print("error: at least one cascade did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_compare_years(args) -> int:
    comparison = year_over_year(_read_esri(args.esri_a), _read_esri(args.esri_b))
    out = _out_dir(args)
    _write_json(out / "comparison.json", {
        "pearson_raw": comparison.pearson_raw,
        "pearson_log": comparison.pearson_log,
        "n_matched": comparison.n_matched,
        "n_log_excluded": comparison.n_log_excluded,
    })
    print(f"matched {comparison.n_matched} firms, raw correlation "
          f"{_fmt(comparison.pearson_raw)}")
    return 0


def _add_out_dir(p) -> None:
    p.add_argument("--out-dir", default=".", help="directory for output files")


def _add_cascade_args(p, scenarios) -> None:
    p.add_argument("--scenario", choices=scenarios, default="gl",
                   help="production-function scenario (default gl)")
    p.add_argument("--epsilon", type=_positive_float, default=0.01,
                   help="convergence threshold (default 0.01)")
    p.add_argument("--max-iter", type=_positive_int, default=1000,
                   help="iteration cap (default 1000)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any cascade fails to converge")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prodrisk",
                     description="Production-network systemic-risk toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write a synthetic firms.csv and edges.csv")
    g.add_argument("--n", type=_positive_int, required=True, help="number of firms")
    g.add_argument("--sectors", type=_positive_int, default=50)
    g.add_argument("--mean-out-degree", type=float, default=5.0)
    g.add_argument("--weight-mu", type=float, default=0.0)
    g.add_argument("--weight-sigma", type=float, default=1.0)
    g.add_argument("--share-physical", type=float, default=0.5,
                   help="fraction of sectors with physical-goods codes")
    g.add_argument("--coverage", type=float, default=1.0,
                   help="observed share of revenue and material cost, in (0, 1]")
    g.add_argument("--seed", type=int, default=0)
    _add_out_dir(g)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("filter", help="keep long-term links of a transaction log")
    f.add_argument("--transactions", required=True, help="transactions.csv path")
    _add_out_dir(f)
    f.set_defaults(func=cmd_filter)

    e = sub.add_parser("esri", help="score every firm's systemic risk")
    e.add_argument("--firms", required=True, help="firms.csv path")
    e.add_argument("--edges", required=True, help="edges.csv path")
    e.add_argument("--workers", type=_positive_int, default=1,
                   help="worker threads for the batch (default 1)")
    e.add_argument("--progress", action="store_true",
                   help="report firms done, rate and ETA on stderr after every chunk")
    e.add_argument("--psi-file", default=None,
                   help="CSV firm_id,psi: run one custom shock instead of the batch")
    _add_cascade_args(e, ("lin", "gl", "mix", "leo", "all"))
    _add_out_dir(e)
    e.set_defaults(func=cmd_esri)

    a = sub.add_parser("analyze", help="rank profile, plateau, thresholds, tail fit")
    a.add_argument("--esri", required=True, help="esri.csv path")
    a.add_argument("--rel-tol", type=_positive_float, default=0.05,
                   help="relative tolerance of the plateau rule (default 0.05)")
    a.add_argument("--x-min", type=float, default=None,
                   help="tail window lower edge (default: smallest positive value)")
    a.add_argument("--x-max", type=float, default=None,
                   help="tail window upper edge (default: largest value)")
    a.add_argument("--thresholds", default=None,
                   help="comma-separated descending thresholds")
    _add_out_dir(a)
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("sector-experiment",
                       help="sector-wide shock vs equivalent firm-level shocks")
    s.add_argument("--firms", required=True)
    s.add_argument("--edges", required=True)
    s.add_argument("--sector", required=True, help="4-digit sector code to shock")
    s.add_argument("--magnitude", type=_positive_float, required=True,
                   help="shocked fraction of the sector's strength, in (0, 1]")
    s.add_argument("--firm-shock", action="append", metavar="ID=FRACTION",
                   help="one scenario failing FRACTION of firm ID's capacity; repeatable")
    _add_cascade_args(s, ("lin", "gl", "mix", "leo"))
    _add_out_dir(s)
    s.set_defaults(func=cmd_sector_experiment)

    c = sub.add_parser("compare-years", help="correlate two scored years")
    c.add_argument("--esri-a", required=True, help="first esri.csv")
    c.add_argument("--esri-b", required=True, help="second esri.csv")
    _add_out_dir(c)
    c.set_defaults(func=cmd_compare_years)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NetworkError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
