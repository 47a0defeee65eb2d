"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import csv
import json
import re

import pytest

from dynkcenter import cli, core


def run_cli(*argv):
    return cli.main(list(argv))


class TestGen:
    def test_gen_random_writes_stream(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        rc = run_cli("gen", "--kind", "random", "--n", "30", "--seed", "7",
                     "--out", str(out))
        assert rc == 0
        points = core.load_stream_jsonl(str(out))
        assert len(points) == 30
        assert "wrote 30 points" in capsys.readouterr().out

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("gen", "--kind", "random", "--n", "25", "--seed", "3", "--out", str(a))
        run_cli("gen", "--kind", "random", "--n", "25", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_gen_adversarial_writes_matrix_sidecar(self, tmp_path):
        out = tmp_path / "adv.jsonl"
        mat = tmp_path / "adv.csv"
        rc = run_cli("gen", "--kind", "adversarial", "--n", "8",
                     "--out", str(out), "--matrix-out", str(mat))
        assert rc == 0
        table = core.load_matrix_csv(str(mat))
        assert len(table) == len(core.load_stream_jsonl(str(out))) == 16

    def test_gen_sliding_and_hbounded(self, tmp_path):
        for kind, extra in (("sliding", ["--window", "5"]),
                            ("hbounded", ["--h", "2"])):
            out = tmp_path / f"{kind}.jsonl"
            assert run_cli("gen", "--kind", kind, "--n", "20",
                           "--out", str(out), *extra) == 0
            assert len(core.load_stream_jsonl(str(out))) == 20


class TestRunVerify:
    @pytest.fixture()
    def stream_path(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "random", "--n", "30", "--seed", "11",
                "--max-life", "6", "--out", str(out))
        return out

    def test_run_writes_report(self, stream_path, tmp_path, capsys):
        report = tmp_path / "r.csv"
        rc = run_cli("run", "--algo", "two", "--k", "2", "--epsilon", "1.0",
                     "--prescan", "--stream", str(stream_path),
                     "--queries", "end", "--report", str(report))
        assert rc == 0
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["radius"]) >= 0.0
        assert "t=" in capsys.readouterr().out

    def test_prescan_scans_the_pairs_once(self, tmp_path, monkeypatch):
        """Bounds taken from the stream cannot fail validation's pairwise
        check, so a prescanned run does not repeat it."""
        stream = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "random", "--n", "20", "--out", str(stream))
        calls = []
        extremes = core.Metric.extremes

        def counted(self, points):
            calls.append(len(points))
            return extremes(self, points)

        monkeypatch.setattr(core.Metric, "extremes", counted)
        assert run_cli("run", "--algo", "two", "--k", "2", "--epsilon", "1.0",
                       "--prescan", "--stream", str(stream)) == 0
        assert calls == [20]

    @pytest.mark.parametrize("algo", ["two", "six"])
    def test_prescan_of_a_one_point_stream(self, algo, tmp_path, capsys):
        """A lone point has no pair to scan; it takes the bounds (1.0, 1.0)
        its generator gives it, and its own cluster has radius 0."""
        stream = tmp_path / "one.jsonl"
        run_cli("gen", "--kind", "random", "--n", "1", "--out", str(stream))
        capsys.readouterr()
        assert run_cli("run", "--algo", algo, "--k", "2", "--epsilon", "1",
                       "--prescan", "--stream", str(stream)) == 0
        assert "t=1 active=1 radius=0.0 " in capsys.readouterr().out

    def test_run_requires_bounds(self, stream_path, capsys):
        rc = run_cli("run", "--algo", "two", "--k", "2", "--epsilon", "1.0",
                     "--stream", str(stream_path))
        assert rc == 1
        assert "dmin" in capsys.readouterr().err

    def test_verify_two_passes(self, stream_path, capsys):
        rc = run_cli("verify", "--algo", "two", "--k", "2", "--epsilon", "1.0",
                     "--prescan", "--stream", str(stream_path),
                     "--queries", "every")
        assert rc == 0
        assert "verification passed" in capsys.readouterr().out

    def test_verify_six_passes(self, stream_path):
        assert run_cli("verify", "--algo", "six", "--k", "2", "--epsilon", "3.0",
                       "--prescan", "--stream", str(stream_path),
                       "--queries", "every") == 0

    def test_run_matrix_metric(self, tmp_path):
        out, mat = tmp_path / "adv.jsonl", tmp_path / "adv.csv"
        run_cli("gen", "--kind", "adversarial", "--n", "6",
                "--out", str(out), "--matrix-out", str(mat))
        rc = run_cli("run", "--algo", "two", "--k", "2", "--epsilon", "1.0",
                     "--prescan", "--stream", str(out),
                     "--metric", f"matrix:{mat}", "--queries", "end")
        assert rc == 0

    def test_queries_at_times(self, stream_path, tmp_path):
        report = tmp_path / "r.csv"
        rc = run_cli("run", "--algo", "two", "--k", "2", "--epsilon", "1.0",
                     "--prescan", "--stream", str(stream_path),
                     "--queries", "at:5,10", "--report", str(report))
        assert rc == 0
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["time"]) for r in rows] == [5, 10]

    def test_report_is_deterministic(self, stream_path, tmp_path):
        paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for p in paths:
            run_cli("verify", "--algo", "two", "--k", "2", "--epsilon", "1.0",
                    "--prescan", "--stream", str(stream_path),
                    "--queries", "every", "--report", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestBench:
    def test_bench_adversarial(self, capsys):
        rc = run_cli("bench", "--sizes", "16,32", "--kind", "adversarial",
                     "--k", "2", "--no-reclustering")
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,structural_ops")
        assert len(lines) == 3

    def test_bench_random(self, capsys):
        rc = run_cli("bench", "--sizes", "50", "--kind", "random",
                     "--algo", "six", "--k", "2", "--epsilon", "3.0")
        assert rc == 0
        assert "50," in capsys.readouterr().out


class TestExitCodes:
    def test_bad_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_bad_queries_spec(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "random", "--n", "10", "--out", str(out))
        rc = run_cli("run", "--algo", "two", "--k", "1", "--epsilon", "1.0",
                     "--prescan", "--stream", str(out), "--queries", "sometimes")
        assert rc == 1

    def test_bad_metric_spec(self, tmp_path):
        out = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "random", "--n", "10", "--out", str(out))
        rc = run_cli("run", "--algo", "two", "--k", "1", "--epsilon", "1.0",
                     "--prescan", "--stream", str(out), "--metric", "hamming")
        assert rc == 1

    def test_invalid_stream_bounds_fail(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "random", "--n", "10", "--seed", "1",
                "--out", str(out))
        # Declared bounds far tighter than the data: validation must fail.
        rc = run_cli("run", "--algo", "two", "--k", "1", "--epsilon", "1.0",
                     "--dmin", "0.9", "--dmax", "1.0", "--stream", str(out))
        assert rc == 1


class TestBadInputExitCodes:
    def _run(self, stream, *extra):
        return run_cli("run", "--algo", "two", "--k", "1", "--epsilon", "1.0",
                       "--prescan", "--stream", str(stream), *extra)

    def test_bad_matrix_file(self, tmp_path, capsys):
        out, mat = tmp_path / "adv.jsonl", tmp_path / "adv.csv"
        run_cli("gen", "--kind", "adversarial", "--n", "4",
                "--out", str(out), "--matrix-out", str(mat))
        mat.write_text(mat.read_text().replace("0.0", "nan", 1))
        assert self._run(out, "--metric", f"matrix:{mat}") == 1
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_coordinate(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        out.write_text('{"id": 0, "t_arr": 1, "t_del": 3, "coords": [0.0]}\n'
                       '{"id": 1, "t_arr": 2, "t_del": 4, "coords": [NaN]}\n')
        assert self._run(out) == 1
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_ids(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        out.write_text('{"id": 0, "t_arr": 1, "t_del": 3, "coords": [0.0]}\n'
                       '{"id": 0, "t_arr": 2, "t_del": 4, "coords": [1.0]}\n')
        assert self._run(out) == 1
        assert "id 0" in capsys.readouterr().err


class TestTypedErrors:
    """Bad parameters and flags an algorithm cannot honour exit 1 with an
    `error:` line instead of a traceback or a silently ignored flag."""

    RUN = ("--k", "2", "--epsilon", "1.0", "--prescan", "--queries", "every")

    @pytest.mark.parametrize("argv", [
        ("run", "--algo", "two", *RUN, "--queries", "at:abc"),
        ("run", "--algo", "two", "--k", "0", "--epsilon", "1.0", "--prescan"),
        ("run", "--algo", "six", *RUN, "--no-reclustering"),
        ("verify", "--algo", "six", *RUN, "--no-reclustering"),
        ("bench", "--sizes", "10,x"),
        ("bench", "--sizes", "2", "--kind", "adversarial"),
        ("bench", "--sizes", "0", "--kind", "random"),
        ("bench", "--sizes", "16", "--kind", "adversarial", "--algo", "six"),
        ("bench", "--sizes", "50", "--kind", "random", "--algo", "six",
         "--no-reclustering"),
        ("gen", "--kind", "sliding", "--n", "5", "--window", "0"),
        ("gen", "--kind", "random", "--n", "0"),
        ("gen", "--kind", "sliding", "--n", "-1"),
        ("gen", "--kind", "random", "--n", "5", "--dim", "-1"),
        ("run", "--algo", "two", *RUN, "--metric", "matrix:no-such-table.csv"),
        ("verify", "--algo", "two", *RUN, "--oracle-cap", "0"),
        ("run", "--algo", "two", *RUN, "--queries", "at:-5,100"),
        ("bench", "--sizes", "16", "--kind", "adversarial", "--epsilon", "-1"),
        ("bench", "--sizes", ","),
        ("run", "--algo", "two", "--k", "2", "--prescan", "--epsilon", "nan"),
        ("verify", "--algo", "six", "--k", "2", "--prescan", "--epsilon", "inf"),
        ("run", "--algo", "two", "--k", "2", "--epsilon", "1", "--dmin", "0.01",
         "--dmax", "inf"),
        ("run", "--algo", "two", *RUN, "--queries", "at:"),
        ("run", "--algo", "two", "--k", "2", "--prescan", "--epsilon", "1e-17"),
        ("bench", "--sizes", "16", "--kind", "adversarial", "--gamma", "inf"),
        ("bench", "--sizes", "16", "--kind", "adversarial", "--gamma", "0"),
        ("gen", "--kind", "adversarial", "--n", "5", "--gamma", "inf"),
    ], ids=lambda a: " ".join(a[:1] + a[-2:]))
    def test_exit_1_with_error_line(self, argv, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "random", "--n", "20", "--out", str(stream))
        capsys.readouterr()
        argv = list(argv)
        if argv[0] in ("run", "verify"):
            argv += ["--stream", str(stream)]
        elif argv[0] == "gen":
            argv += ["--out", str(tmp_path / "out.jsonl")]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("algo", ["two", "six"])
    def test_a_ladder_below_the_data_exits_1(self, algo, tmp_path, capsys):
        """Bounds go unchecked above PAIRWISE_CHECK_CAP points, so a ladder
        far below the data's distances fails at the query instead, with
        NoFeasibleGuess."""
        stream = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "random", "--n", str(core.PAIRWISE_CHECK_CAP + 1),
                "--out", str(stream))
        capsys.readouterr()
        assert run_cli("run", "--algo", algo, "--k", "2", "--epsilon", "1.0",
                       "--dmin", "0.0001", "--dmax", "0.001",
                       "--stream", str(stream)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["not-utf8", "int-beyond-int64", "float-beyond-int64"])
    def test_records_the_replay_cannot_read_exit_1(self, case, tmp_path, capsys):
        """A byte that is not UTF-8 far past the first chunk the file is
        decoded in is named by its line; a time beyond the signed 64-bit
        range, which `measure_h` reads, is a typed error too."""
        stream = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "sliding", "--n", "300", "--out", str(stream))
        lines = stream.read_bytes().splitlines()
        if case == "not-utf8":
            lines[249] = lines[249].replace(b'"id"', b'"id\xff"')
        else:
            big = b"100000000000000000000" if case == "int-beyond-int64" else b"1e20"
            lines[249] = re.sub(rb'"t_del": \d+', b'"t_del": ' + big, lines[249])
        stream.write_bytes(b"\n".join(lines) + b"\n")
        capsys.readouterr()
        assert run_cli("run", "--algo", "two", "--k", "2", "--epsilon", "1.0", "--dmin",
                       "0.001", "--dmax", "2", "--stream", str(stream)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if case == "not-utf8":
            assert "line 250" in err

    @pytest.mark.parametrize("case", ["matrix-on-coordinates", "record-without-coords"])
    def test_payloads_the_metric_cannot_read_exit_1(self, case, tmp_path, capsys):
        """Above PAIRWISE_CHECK_CAP no scan reads every payload before the
        replay, so the first distance the structure computes meets a payload
        its metric cannot read; it raises MetricError, not a TypeError."""
        stream = tmp_path / "s.jsonl"
        run_cli("gen", "--kind", "sliding", "--n", str(core.PAIRWISE_CHECK_CAP + 100),
                "--out", str(stream))
        if case == "matrix-on-coordinates":
            table = tmp_path / "adv.csv"
            run_cli("gen", "--kind", "adversarial", "--n", "10", "--out",
                    str(tmp_path / "adv.jsonl"), "--matrix-out", str(table))
            argv = ("--algo", "two", "--metric", f"matrix:{table}", "--dmin", "0.01")
        else:
            lines = stream.read_text().splitlines()
            row = json.loads(lines[5])
            del row["coords"]
            lines[5] = json.dumps(row)
            stream.write_text("\n".join(lines) + "\n")
            argv = ("--algo", "six", "--dmin", "0.001")
        capsys.readouterr()
        assert run_cli("run", *argv, "--dmax", "2", "--k", "2", "--epsilon", "1.0",
                       "--stream", str(stream)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("bounds", [("--prescan",), ("--dmin", "0.01", "--dmax", "2")],
                             ids=["prescan", "declared"])
    def test_pair_scan_meets_a_payload_the_metric_cannot_read_exit_1(
        self, bounds, tmp_path, capsys
    ):
        """At most PAIRWISE_CHECK_CAP points, the scan that measures or checks
        the bounds reads every payload first; a record without coordinates
        among coordinate records under a matrix metric is a MetricError."""
        stream, table = tmp_path / "s.jsonl", tmp_path / "adv.csv"
        run_cli("gen", "--kind", "adversarial", "--n", "10", "--out",
                str(tmp_path / "adv.jsonl"), "--matrix-out", str(table))
        run_cli("gen", "--kind", "sliding", "--n", "30", "--out", str(stream))
        lines = stream.read_text().splitlines()
        row = json.loads(lines[5])
        del row["coords"]
        lines[5] = json.dumps(row)
        stream.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("run", "--algo", "two", "--k", "2", "--epsilon", "1", *bounds,
                       "--metric", f"matrix:{table}", "--stream", str(stream)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
