"""End-to-end runs of the command line, in process via main()."""

import csv
import json
import math
import tempfile
import tracemalloc
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (edge_blocks, reference_read_edges, reference_read_firms,
                       reference_read_table)

from prodrisk import cli
from prodrisk.netcore import FirmRecord, build_network
from prodrisk.prodfun import Scenario, assign_scenario, calibrate
from prodrisk.cascade import build_impact_matrices, rescale_for_coverage
from prodrisk.esri import esri_all


def run(*argv):
    return cli.main(list(argv))


def run_usage_error(*argv):
    """Exit code of an argparse-level failure, which raises SystemExit."""
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    return err.value.code


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def data_dir(tmp_path):
    """Small synthetic network written by the generate subcommand."""
    out = tmp_path / "data"
    assert run("generate", "--n", "60", "--seed", "3", "--coverage", "0.8",
               "--out-dir", str(out)) == 0
    return out


def load_network(data):
    firms = [FirmRecord(fid, nace, float(rev) if rev else None,
                        float(cost) if cost else None)
             for fid, nace, rev, cost in read_rows(data / "firms.csv")[1:]]
    edges = [(s, b, float(w)) for s, b, w in read_rows(data / "edges.csv")[1:]]
    return build_network(firms, edge_blocks(edges))


def chain_dir(tmp_path):
    """Two-firm chain whose cascades need more than one step."""
    out = tmp_path / "chain"
    out.mkdir()
    write_csv(out / "firms.csv", cli.FIRMS_HEADER,
              [["a", "0111", "", ""], ["b", "4711", "", ""]])
    write_csv(out / "edges.csv", cli.EDGES_HEADER, [["a", "b", "10.0"]])
    return out


# fields csv.reader reads as they are, and fields that need quotes, a CR or a NUL
IDS = st.sampled_from(["F1", "F2", "é", "日本", "a b", "", "sp ", "\u2028", "a\x00b",
                       'x"y', "q,r", "two\nlines", "cr\rhere"])
# good, negative, non-finite and unparsable figures
FIGURES = st.sampled_from(["1.5", "0", "0.0", "-0.0", "5e-324", "1e308", "2_0", " 3",
                           "4.25", "", "x", "-1", "nan", "inf", "1e400"])


@st.composite
def csv_text(draw, header):
    """CSV text in the given header's shape: ids, then figures after the
    second field, with quoted fields, CR and CRLF line ends, blank lines,
    wrong field counts, header rows, and the first header row and the final
    newline optional."""
    k = len(header)
    lines = [",".join(header)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 19)) == 0:  # the header as a data row
            lines.append(",".join(header))
            continue
        width = k if draw(st.integers(0, 9)) else draw(st.sampled_from([1, k - 1, k + 1]))
        fields = []
        for j in range(width):
            text = draw(IDS if j < 2 else FIGURES)
            if any(c in text for c in ',"\r\n') or draw(st.integers(0, 19)) == 0:
                text = '"' + text.replace('"', '""') + '"'
            fields.append(text)
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    ends = st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome_of(read):
    """Everything read before an error, and the error's type and text."""
    got = []
    try:
        for item in read():
            got.append(item)
    except (ValueError, cli.DataError, csv.Error) as exc:
        return got, (type(exc).__name__, str(exc))
    return got, None


def block_rows(path, header):
    for lines, columns in cli._read_blocks(path, header):
        for lineno, fields in zip(lines, zip(*columns)):
            yield lineno, list(fields)


def edge_triples(path):
    for sids, bids, w in cli._read_edges(path):
        yield from zip(sids, bids, map(float.hex, w.tolist()))


class TestBlockReader:
    """The block reader against the row reader it replaced: same rows, same line
    numbers, same first error, at block sizes of 1-64 bytes."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([cli.EDGES_HEADER, cli.FIRMS_HEADER]).flatmap(
               lambda h: st.tuples(st.just(h), csv_text(h))),
           st.integers(1, 64), st.sampled_from([None, 3, 12]))
    @example((cli.EDGES_HEADER, "a,b,1\r\nc,d,2\n"), 64, None)
    @example((cli.EDGES_HEADER, "a,b,1\n\nc,d\n"), 1, None)
    @example((cli.EDGES_HEADER, 'supplier_id,buyer_id,weight\na,"b\nc",-1\n'), 8, None)
    @example((cli.FIRMS_HEADER, "a,0111,1,\nlongfield,0111,,\n"), 64, 8)
    @example((cli.EDGES_HEADER, "a,b,1\n" * 4 + "a,b,-1\na,b,1\na,b,x\n"), 64, None)
    @example((cli.EDGES_HEADER, '"a",b,1\na,b,-1\na,b\n'), 64, None)
    @example((cli.FIRMS_HEADER, "a,0111,1,x\nb,0111,-1,1\n"), 64, None)
    def test_same_rows_and_errors_as_row_reader(self, table, size, limit):
        header, text = table
        old_limit = csv.field_size_limit()
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_BLOCK_BYTES", size):
            path = Path(tmp) / "table.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                if limit is not None:
                    csv.field_size_limit(limit)
                assert (outcome_of(lambda: block_rows(path, header))
                        == outcome_of(lambda: reference_read_table(path, header)))
                if header == cli.EDGES_HEADER:
                    got, ref = (outcome_of(lambda: edge_triples(path)),
                                outcome_of(lambda: ((s, b, w.hex())
                                                    for s, b, w in reference_read_edges(path))))
                else:
                    got, ref = (outcome_of(lambda: map(astuple, cli._read_firms(path))),
                                outcome_of(lambda: map(astuple, reference_read_firms(path))))
            finally:
                csv.field_size_limit(old_limit)
        # the first bad row wins; rows before it are checked in blocks
        assert got[1] == ref[1]
        if ref[1] is None:
            assert [list(map(repr, r)) for r in got[0]] == [list(map(repr, r)) for r in ref[0]]

    def test_crlf_file_is_split_without_csv_reader(self, tmp_path, monkeypatch):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_csv(lf, cli.EDGES_HEADER,
                  [["a", "b", "1.5"], ["b", "c", "2"], ["c", "a", "0.25"]] * 20)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 64)
        want = list(block_rows(lf, cli.EDGES_HEADER)), list(edge_triples(lf))

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(cli.csv, "reader", no_reader)
        assert (list(block_rows(crlf, cli.EDGES_HEADER)), list(edge_triples(crlf))) == want


class TestGenerate:
    def test_row_counts_and_determinism(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("generate", "--n", "50", "--seed", "7", "--out-dir", str(a)) == 0
        assert "50 firms" in capsys.readouterr().out
        assert run("generate", "--n", "50", "--seed", "7", "--out-dir", str(b)) == 0
        assert len(read_rows(a / "firms.csv")) == 51
        assert (a / "firms.csv").read_bytes() == (b / "firms.csv").read_bytes()
        assert (a / "edges.csv").read_bytes() == (b / "edges.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run("generate", "--n", "50", "--seed", "1", "--out-dir", str(a))
        run("generate", "--n", "50", "--seed", "2", "--out-dir", str(b))
        assert (a / "edges.csv").read_bytes() != (b / "edges.csv").read_bytes()

    def test_bad_parameters_are_usage_errors(self, tmp_path):
        assert run_usage_error("generate", "--n", "0") == 1
        assert run("generate", "--n", "5", "--coverage", "1.5",
                   "--out-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("args, name", [
        (["--mean-out-degree", "inf"], "mean_out_degree"),
        (["--weight-mu", "nan"], "weight_mu"),
        (["--weight-sigma", "inf"], "weight_sigma"),
        (["--weight-mu", "1000"], "weight_mu"),
        (["--sectors", "9000"], "n_sectors"),
        (["--sectors", "4100", "--share-physical", "1"], "n_sectors"),
    ])
    def test_parameters_esri_cannot_read_are_usage_errors(self, tmp_path, capsys, args, name):
        out = tmp_path / "data"
        assert run("generate", "--n", "20", *args, "--out-dir", str(out)) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--n", "1"], ["--n", "20", "--weight-mu", "-1000"]])
    def test_zero_total_weight_is_a_usage_error(self, tmp_path, capsys, args):
        """One firm has only self-loops; at mu = -1000 every weight underflows to 0."""
        out = tmp_path / "data"
        assert run("generate", *args, "--out-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "total weight is zero" in err and "n_firms" in err and "weight_mu" in err
        assert not out.exists()


class TestFilter:
    def test_keeps_long_term_pairs(self, tmp_path, capsys):
        log = tmp_path / "transactions.csv"
        write_csv(log, cli.TRANSACTIONS_HEADER, [
            ["a", "b", "2024-01-01", "5.0"],
            ["a", "b", "2024-05-01", "7.0"],
            ["c", "d", "2024-03-01", "3.0"],
        ])
        assert run("filter", "--transactions", str(log), "--out-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "pairs kept: 1 of 2" in out
        assert "fraction 0.8" in out
        assert read_rows(tmp_path / "edges.csv") == [cli.EDGES_HEADER, ["a", "b", "12.0"]]

    def test_bad_date_is_a_data_error(self, tmp_path):
        log = tmp_path / "transactions.csv"
        write_csv(log, cli.TRANSACTIONS_HEADER, [["a", "b", "yesterday", "5.0"]])
        assert run("filter", "--transactions", str(log), "--out-dir", str(tmp_path)) == 2


class TestEsri:
    def test_batch_matches_library(self, data_dir, tmp_path):
        out = tmp_path / "scores"
        assert run("esri", "--firms", str(data_dir / "firms.csv"),
                   "--edges", str(data_dir / "edges.csv"),
                   "--scenario", "gl", "--out-dir", str(out)) == 0
        rows = read_rows(out / "esri.csv")
        assert rows[0] == cli.ESRI_HEADER

        net = load_network(data_dir)
        spec = assign_scenario(net, Scenario.GL)
        params = calibrate(net, spec)
        matrices = rescale_for_coverage(build_impact_matrices(net, spec), net.firms)
        vec = esri_all(net, matrices, params)
        assert len(rows) == net.n + 1
        for i, (fid, value, t, conv) in enumerate(rows[1:]):
            assert fid == net.firms[i].firm_id
            assert float(value) == vec.values[i]
            assert int(t) == vec.T[i]
            assert conv == ("true" if vec.converged[i] else "false")

        summary = read_json(out / "summary.json")
        assert summary["caveat"] == cli.CAVEAT
        assert summary["n_firms"] == net.n
        assert summary["network_fingerprint"] == vec.network_fingerprint
        gl = summary["scenarios"]["gl"]
        assert gl["max_esri"] == float(np.max(vec.values))
        assert gl["n_non_converged"] == 0

    def test_rerun_byte_identical(self, data_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("esri", "--firms", str(data_dir / "firms.csv"),
                       "--edges", str(data_dir / "edges.csv"), "--out-dir", str(out)) == 0
        assert (a / "esri.csv").read_bytes() == (b / "esri.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_all_scenarios(self, data_dir, tmp_path):
        out = tmp_path / "all"
        assert run("esri", "--firms", str(data_dir / "firms.csv"),
                   "--edges", str(data_dir / "edges.csv"),
                   "--scenario", "all", "--out-dir", str(out)) == 0
        for name in ("lin", "leo", "mix", "gl"):
            assert (out / f"esri_{name}.csv").is_file()
        assert not (out / "esri.csv").exists()
        assert set(read_json(out / "summary.json")["scenarios"]) == {"lin", "leo", "mix", "gl"}

    @pytest.mark.parametrize("scenario,batches", [("gl", 1), ("all", 4)])
    def test_progress_leaves_outputs_unchanged(self, data_dir, tmp_path, capsys,
                                               scenario, batches):
        runs = {}
        for flag in ((), ("--progress",)):
            out = tmp_path / f"out{len(flag)}"
            assert run("esri", "--firms", str(data_dir / "firms.csv"),
                       "--edges", str(data_dir / "edges.csv"), "--scenario", scenario,
                       "--out-dir", str(out), *flag) == 0
            runs[bool(flag)] = out, capsys.readouterr().err
        (plain, plain_err), (shown, shown_err) = runs[False], runs[True]
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in shown.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (shown / name).read_bytes()
        assert "progress" not in plain_err
        lines = [line for line in shown_err.splitlines() if line.startswith("progress: ")]
        total = batches * 60  # one chunk per batch on this 60-firm network
        assert len(lines) == batches
        assert lines[-1].startswith(f"progress: {total}/{total} firms, ")
        assert "firms/s, ETA " in lines[-1]

    def test_strict_flags_non_convergence(self, tmp_path, capsys):
        data = chain_dir(tmp_path)
        args = ("esri", "--firms", str(data / "firms.csv"),
                "--edges", str(data / "edges.csv"), "--max-iter", "1",
                "--out-dir", str(tmp_path / "o"))
        assert run(*args) == 0
        assert "did not converge" in capsys.readouterr().err
        assert run(*args, "--strict") == 3

    def test_psi_file_matches_batch_value(self, tmp_path, capsys):
        data = chain_dir(tmp_path)
        psi = tmp_path / "psi.csv"
        write_csv(psi, cli.PSI_HEADER, [["a", "0.0"]])
        batch = tmp_path / "batch"
        custom = tmp_path / "custom"
        assert run("esri", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"),
                   "--scenario", "leo", "--out-dir", str(batch)) == 0
        assert run("esri", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"),
                   "--scenario", "leo", "--psi-file", str(psi),
                   "--out-dir", str(custom)) == 0
        assert "weighted loss" in capsys.readouterr().out

        summary = read_json(custom / "summary.json")
        assert summary["mode"] == "custom_shock"
        value_of_a = float(read_rows(batch / "esri.csv")[1][1])
        assert summary["weighted_loss"] == value_of_a

        h_rows = read_rows(custom / "h.csv")
        assert h_rows[0] == ["firm_id", "h_d", "h_u", "h"]
        assert float(h_rows[1][3]) == 0.0  # the failed firm itself

    def test_psi_file_needs_single_scenario(self, tmp_path, capsys, monkeypatch):
        data = chain_dir(tmp_path)
        psi = tmp_path / "psi.csv"
        write_csv(psi, cli.PSI_HEADER, [["a", "0.5"]])
        # rejected before any input is read or any directory is made
        monkeypatch.setattr(cli, "_load_network", lambda args: pytest.fail("input read"))
        assert run("esri", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"), "--scenario", "all",
                   "--psi-file", str(psi), "--out-dir", str(tmp_path / "o")) == 1
        assert "--psi-file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("row", [None, ["a", "1.5"]])
    def test_bad_psi_file_fails_before_the_network_is_read(self, tmp_path, capsys, monkeypatch,
                                                           row):
        data = chain_dir(tmp_path)
        psi = tmp_path / "psi.csv"
        if row is not None:
            write_csv(psi, cli.PSI_HEADER, [row])
        monkeypatch.setattr(cli, "_load_network", lambda args: pytest.fail("network read"))
        code = run("esri", "--firms", str(data / "firms.csv"), "--edges", str(data / "edges.csv"),
                   "--psi-file", str(psi), "--out-dir", str(tmp_path / "o"))
        assert code == (1 if row is None else 2)  # no such file; psi outside [0, 1]
        assert str(psi) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario", ["gl", "all"])
    def test_zero_weight_network_writes_nothing(self, tmp_path, scenario):
        data = chain_dir(tmp_path)
        write_csv(data / "edges.csv", cli.EDGES_HEADER, [["a", "b", "0.0"]])
        assert run("esri", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"), "--scenario", scenario,
                   "--out-dir", str(tmp_path / "o")) == 2
        assert not (tmp_path / "o").exists()

    def test_psi_file_unknown_firm(self, tmp_path):
        data = chain_dir(tmp_path)
        psi = tmp_path / "psi.csv"
        write_csv(psi, cli.PSI_HEADER, [["nope", "0.5"]])
        assert run("esri", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"),
                   "--psi-file", str(psi), "--out-dir", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("revenue,cost", [("nan", ""), ("inf", ""), ("", "-5")])
    def test_bad_income_figures_are_data_errors(self, tmp_path, capsys, revenue, cost):
        data = chain_dir(tmp_path)
        # zero figures on line 2 are valid, so the error names line 3
        write_csv(data / "firms.csv", cli.FIRMS_HEADER,
                  [["a", "0111", "0.0", "0.0"], ["b", "4711", revenue, cost]])
        assert run("esri", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"),
                   "--out-dir", str(tmp_path / "o")) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-1", "x"])
    def test_bad_edge_weights_are_data_errors(self, tmp_path, capsys, weight):
        data = chain_dir(tmp_path)
        # a zero weight on line 2 is valid, so the error names line 3
        write_csv(data / "edges.csv", cli.EDGES_HEADER,
                  [["b", "a", "0.0"], ["a", "b", weight], ["ghost", "a", "1.0"]])
        assert run("esri", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"),
                   "--out-dir", str(tmp_path / "o")) == 2
        assert "edges.csv line 3" in capsys.readouterr().err

    def test_loader_memory_peak(self, tmp_path):
        """Loading streams the edges into columns; no per-edge containers are kept.

        The per-edge dictionary loader peaked at 9.1 MB here, the columnar one
        at 2.4 MB.
        """
        data = tmp_path / "data"
        assert run("generate", "--n", "2000", "--mean-out-degree", "10", "--coverage", "0.8",
                   "--seed", "5", "--out-dir", str(data)) == 0
        tracemalloc.start()
        try:
            net = build_network(cli._read_firms(data / "firms.csv"),
                                cli._read_edges(data / "edges.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert net.n_edges == 19764
        assert peak < 4 * 2**20

    def test_empty_network_is_a_data_error(self, tmp_path):
        write_csv(tmp_path / "firms.csv", cli.FIRMS_HEADER, [])
        write_csv(tmp_path / "edges.csv", cli.EDGES_HEADER, [])
        assert run("esri", "--firms", str(tmp_path / "firms.csv"),
                   "--edges", str(tmp_path / "edges.csv"),
                   "--out-dir", str(tmp_path / "o")) == 2


class TestAnalyze:
    def esri_file(self, tmp_path, values):
        path = tmp_path / "esri.csv"
        write_csv(path, cli.ESRI_HEADER,
                  [[f"f{i:04d}", repr(float(v)), "3", "true"]
                   for i, v in enumerate(values)])
        return path

    def test_reports_on_a_plateau_profile(self, tmp_path, capsys):
        values = [0.40, 0.39, 0.395, 0.385, 0.01, 0.002, 0.0005]
        path = self.esri_file(tmp_path, values)
        out = tmp_path / "an"
        assert run("analyze", "--esri", str(path), "--out-dir", str(out)) == 0
        assert "plateau size 4" in capsys.readouterr().out

        profile = read_rows(out / "profile.csv")
        assert profile[0] == ["rank", "firm_id", "esri"]
        ranked = [float(r[2]) for r in profile[1:]]
        assert ranked == sorted(values, reverse=True)

        plateau = read_json(out / "plateau.json")
        assert plateau["size"] == 4
        assert plateau["level"] == pytest.approx(np.mean([0.40, 0.395, 0.39, 0.385]))

        thresholds = read_json(out / "thresholds.json")
        assert thresholds["thresholds"] == list(cli.DEFAULT_THRESHOLDS)
        assert thresholds["counts"][0] == 0  # nothing clears 0.41
        assert thresholds["counts"][1] == 4

        assert math.isfinite(read_json(out / "powerlaw.json")["alpha_hat"])

    def test_recovers_tail_exponent(self, tmp_path):
        rng = np.random.default_rng(17)
        values = (1.0 - rng.random(20_000)) ** -1.0
        path = self.esri_file(tmp_path, values)
        out = tmp_path / "an"
        assert run("analyze", "--esri", str(path), "--x-min", "1.0",
                   "--out-dir", str(out)) == 0
        fit = read_json(out / "powerlaw.json")
        assert abs(fit["alpha_hat"] - 2.0) < 0.05
        assert fit["coverage"] == 1.0

    def test_custom_thresholds(self, tmp_path):
        path = self.esri_file(tmp_path, [0.5, 0.2, 0.09, 0.01])
        out = tmp_path / "an"
        assert run("analyze", "--esri", str(path), "--thresholds", "0.3,0.1",
                   "--out-dir", str(out)) == 0
        assert read_json(out / "thresholds.json")["counts"] == [1, 2]
        assert run("analyze", "--esri", str(path), "--thresholds", "0.1,0.3",
                   "--out-dir", str(out)) == 1

    @pytest.mark.parametrize("ladder", ["nan,0.1", "inf,0.1", "0.1,,0.01"])
    def test_bad_thresholds_write_nothing(self, tmp_path, capsys, ladder):
        path = self.esri_file(tmp_path, [0.5, 0.2, 0.09, 0.01])
        out = tmp_path / "an"
        assert run("analyze", "--esri", str(path), "--thresholds", ladder,
                   "--out-dir", str(out)) == 1
        assert "thresholds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window", [["--x-min", "0.3", "--x-max", "0.1"],
                                        ["--x-max", "inf"]])
    def test_bad_window_writes_nothing(self, tmp_path, capsys, window):
        path = self.esri_file(tmp_path, [0.5, 0.2, 0.09])
        out = tmp_path / "an"
        assert run("analyze", "--esri", str(path), *window, "--out-dir", str(out)) == 1
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rel_tol", ["1.0", "1.5"])
    def test_bad_rel_tol_writes_nothing(self, tmp_path, capsys, rel_tol):
        path = self.esri_file(tmp_path, [0.5, 0.2, 0.09])
        out = tmp_path / "an"
        assert run("analyze", "--esri", str(path), "--rel-tol", rel_tol,
                   "--out-dir", str(out)) == 1
        assert "rel_tol" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_a_usage_error(self, tmp_path):
        assert run("analyze", "--esri", str(tmp_path / "nope.csv"),
                   "--out-dir", str(tmp_path)) == 1

    def test_malformed_rows_are_data_errors(self, tmp_path):
        path = tmp_path / "esri.csv"
        path.write_text("firm_id,esri,T,converged\nf1,0.5\n", encoding="utf-8")
        assert run("analyze", "--esri", str(path), "--out-dir", str(tmp_path)) == 2

    def test_duplicate_firms_are_data_errors(self, tmp_path):
        path = tmp_path / "esri.csv"
        write_csv(path, cli.ESRI_HEADER,
                  [["f1", "0.5", "1", "true"], ["f1", "0.4", "1", "true"]])
        assert run("analyze", "--esri", str(path), "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_bad_values_are_data_errors(self, tmp_path, capsys, value):
        path = tmp_path / "esri.csv"
        write_csv(path, cli.ESRI_HEADER,
                  [["f1", "0.5", "1", "true"], ["f2", value, "1", "true"]])
        assert run("analyze", "--esri", str(path), "--out-dir", str(tmp_path / "an")) == 2
        assert "esri.csv line 3" in capsys.readouterr().err
        assert not (tmp_path / "an").exists()

    def test_flat_values_cannot_pick_a_window(self, tmp_path):
        path = self.esri_file(tmp_path, [0.2, 0.2, 0.2])
        assert run("analyze", "--esri", str(path), "--out-dir", str(tmp_path)) == 2


class TestSectorExperiment:
    def fixture(self, tmp_path):
        write_csv(tmp_path / "firms.csv", cli.FIRMS_HEADER, [
            ["P", "1001", "", ""], ["A", "2611", "", ""], ["B", "2611", "", ""],
            ["C1", "5001", "", ""], ["C2", "6001", "", ""]])
        write_csv(tmp_path / "edges.csv", cli.EDGES_HEADER, [
            ["P", "A", "20.0"], ["A", "C1", "50.0"], ["B", "C2", "30.0"]])
        return tmp_path

    def test_report_and_correlation_line(self, tmp_path, capsys):
        data = self.fixture(tmp_path)
        out = tmp_path / "exp"
        # the sector holds 100 of combined strength, so each scenario must
        # remove 20: all of A's 70 times 2/7, or B's 30 times 2/3
        assert run("sector-experiment", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"), "--sector", "2611",
                   "--magnitude", "0.2", "--scenario", "leo",
                   "--firm-shock", f"A={2.0 / 7.0!r}",
                   "--firm-shock", f"B={2.0 / 3.0!r}",
                   "--out-dir", str(out)) == 0
        assert "deviation correlation A vs B:" in capsys.readouterr().out
        rows = read_rows(out / "sector_report.csv")
        assert rows[0] == ["sector", "received_ref", "received_scenario_1",
                           "received_scenario_2", "rel_dev_ref", "rel_dev_1", "rel_dev_2"]
        assert len(rows) == 5  # four sectors plus the header
        assert all(r[4] == "1.0" for r in rows[1:])

    def test_wrong_size_rejected(self, tmp_path):
        data = self.fixture(tmp_path)
        assert run("sector-experiment", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"), "--sector", "2611",
                   "--magnitude", "0.2", "--firm-shock", "A=0.1",
                   "--out-dir", str(tmp_path / "o")) == 1

    def test_unknown_sector_is_a_data_error(self, tmp_path):
        data = self.fixture(tmp_path)
        assert run("sector-experiment", "--firms", str(data / "firms.csv"),
                   "--edges", str(data / "edges.csv"), "--sector", "0000",
                   "--magnitude", "0.2", "--out-dir", str(tmp_path / "o")) == 2

    def test_bad_shock_syntax(self, tmp_path):
        data = self.fixture(tmp_path)
        base = ("sector-experiment", "--firms", str(data / "firms.csv"),
                "--edges", str(data / "edges.csv"), "--sector", "2611",
                "--magnitude", "0.2", "--out-dir", str(tmp_path / "o"))
        assert run(*base, "--firm-shock", "A") == 1
        assert run(*base, "--firm-shock", "A=lots") == 1
        assert run(*base, "--firm-shock", "A=1.5") == 1

    def test_bad_shock_checked_before_input(self, tmp_path, capsys):
        assert run("sector-experiment", "--firms", str(tmp_path / "missing.csv"),
                   "--edges", str(tmp_path / "missing.csv"), "--sector", "2611",
                   "--magnitude", "0.2", "--firm-shock", "A",
                   "--out-dir", str(tmp_path / "o")) == 1
        assert "--firm-shock" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCompareYears:
    def test_writes_comparison(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, cli.ESRI_HEADER, [["f1", "0.1", "1", "true"],
                                       ["f2", "0.2", "1", "true"],
                                       ["f3", "0.4", "1", "true"]])
        write_csv(b, cli.ESRI_HEADER, [["f3", "0.8", "1", "true"],
                                       ["f1", "0.2", "1", "true"],
                                       ["f2", "0.4", "1", "true"],
                                       ["f9", "0.9", "1", "true"]])
        assert run("compare-years", "--esri-a", str(a), "--esri-b", str(b),
                   "--out-dir", str(tmp_path)) == 0
        assert "matched 3 firms" in capsys.readouterr().out
        cmp = read_json(tmp_path / "comparison.json")
        assert cmp["n_matched"] == 3
        assert cmp["pearson_raw"] == pytest.approx(1.0)
        assert cmp["pearson_log"] == pytest.approx(1.0)

    def test_bad_values_are_data_errors(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, cli.ESRI_HEADER, [["f1", "0.1", "1", "true"], ["f2", "0.2", "1", "true"]])
        write_csv(b, cli.ESRI_HEADER, [["f1", "0.2", "1", "true"], ["f2", "nan", "1", "true"]])
        assert run("compare-years", "--esri-a", str(a), "--esri-b", str(b),
                   "--out-dir", str(tmp_path)) == 2
        assert "b.csv line 3" in capsys.readouterr().err

    def test_small_overlap_is_a_data_error(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, cli.ESRI_HEADER, [["f1", "0.1", "1", "true"]])
        write_csv(b, cli.ESRI_HEADER, [["f1", "0.2", "1", "true"]])
        assert run("compare-years", "--esri-a", str(a), "--esri-b", str(b),
                   "--out-dir", str(tmp_path)) == 2


class TestUsage:
    def test_unknown_subcommand(self):
        assert run_usage_error("frobnicate") == 1

    def test_unknown_flag(self):
        assert run_usage_error("generate", "--n", "5", "--wat") == 1

    def test_missing_required_argument(self):
        assert run_usage_error("esri", "--firms", "x.csv") == 1
