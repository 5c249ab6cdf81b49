"""Command-line behavior: exit codes, file outputs, determinism."""
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scma
from scma import cli, montecarlo, optimizer
from scma.cli import MAX_RANGE_POINTS, UsageError, build_parser, main, parse_snr_range
from scma.core import CodebookSet, codebook_to_dict, write_codebook_json
from scma.detector import mpa_detect_batch
from scma.fixtures import load_codebook
from scma.montecarlo import DEFAULT_MAX_FRAMES, DEFAULT_TARGET_ERRORS
from scma.structure import builtin_template, normalize

from conftest import six_codeword_template_doc, template_doc


@pytest.fixture()
def table2_file(tmp_path):
    path = tmp_path / "table2.json"
    write_codebook_json(load_codebook("table2_awgn_6x4"), path)
    return path


@pytest.fixture()
def normalize_calls(monkeypatch):
    """The arguments of every call the optimizer makes to ``normalize``."""
    calls = []

    def spy(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(optimizer, "normalize", spy)
    return calls


class TestRangeParser:
    def test_degenerate_range(self):
        assert parse_snr_range("10:1:10") == [10.0]
        assert parse_snr_range("3:0:3") == [3.0]

    def test_ascending(self):
        assert parse_snr_range("0:2:6") == [0.0, 2.0, 4.0, 6.0]

    def test_descending(self):
        assert parse_snr_range("20:-5:10") == [20.0, 15.0, 10.0]

    def test_bare_number(self):
        assert parse_snr_range("7.5") == [7.5]

    def test_fractional_step_endpoint_inclusive(self):
        vals = parse_snr_range("0:0.5:2")
        assert vals == [0.0, 0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize(
        "bad", ["a:b:c", "1:2", "0:0:5", "5:1:0", "0:1:inf", "inf:1:5", "0:1:nan", "nan",
                "0:1:10000", "0:1e-6:1", "0:5e-324:1"]
    )
    def test_invalid_forms(self, bad):
        with pytest.raises(UsageError):
            parse_snr_range(bad)

    def test_point_limit_is_inclusive(self):
        assert len(parse_snr_range("0:1:9999")) == MAX_RANGE_POINTS


class TestValidateCommand:
    def test_published_codebook_passes(self, table2_file, capsys):
        assert main(["validate", "--codebook", str(table2_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["warnings"]  # norm deviations reported, not fatal

    def test_closed_output_pipe_exits_without_traceback(self, table2_file, monkeypatch):
        """`scma validate ... | head -2` raised BrokenPipeError once the
        reader closed the pipe."""
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        stdout = open(write_fd, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(["validate", "--codebook", str(table2_file)]) == 1
        finally:
            stdout.close()

    def test_closed_pipe_on_fixture_dump_exits_without_traceback(self, monkeypatch,
                                                                 capsys):
        """`scma fixture <id> | head -c 0` exits 1 with nothing on stderr."""
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        stdout = open(write_fd, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(["fixture", "table2_awgn_6x4"]) == 1
        finally:
            stdout.close()
        assert capsys.readouterr().err == ""

    def test_truncated_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"J": 6, ')
        assert main(["validate", "--codebook", str(bad)]) == 2

    def test_malformed_entries_are_usage_errors(self, tmp_path, capsys):
        """A non-list codebooks field, a numeric codeword, a null in an
        [re, im] pair, an infinite J, an infinite F entry, a fractional J, an
        F entry of 1.9 or "1" (both used to load as 1), an F that is not 2-D
        and no users at all each end in one error line and exit 2."""
        for case in range(10):
            doc = codebook_to_dict(load_codebook("table2_awgn_6x4"))
            if case == 0:
                doc["codebooks"] = 5
            elif case == 1:
                doc["codebooks"][2][1] = 0.5
            elif case == 2:
                doc["codebooks"][1][3][0] = [None, 0.0]
            elif case == 3:
                doc["J"] = float("inf")
            elif case == 4:
                doc["F"][0][0] = float("inf")
            elif case == 5:
                doc["J"] = 6.7
            elif case < 8:
                doc["F"][0][0] = [1.9, "1"][case - 6]
            elif case == 8:
                doc["F"] = doc["F"][0]
            else:
                doc["J"], doc["codebooks"] = 0, []
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            assert main(["validate", "--codebook", str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1

    def test_support_mismatch_fails_validation(self, tmp_path, capsys):
        doc = codebook_to_dict(load_codebook("table2_awgn_6x4"))
        doc["F"][0] = [0, 1, 1, 0, 1, 0]  # wrong support for user 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--codebook", str(path)]) == 1

    def test_unused_resource_fails_validation(self, tmp_path, capsys):
        """A fifth resource that no user occupies passed validation, while
        simulate and analyze rejected the same file."""
        doc = codebook_to_dict(load_codebook("table2_awgn_6x4"))
        doc["K"] = 5
        doc["F"].append([0] * 6)
        for book in doc["codebooks"]:
            for cw in book:
                cw.append([0.0, 0.0])
        path = tmp_path / "unused.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--codebook", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == ["resource 4 has no users attached"]


class TestAnalyzeCommand:
    def test_kpi_only_without_grid(self, table2_file, tmp_path, capsys):
        assert main(["analyze", "--codebook", str(table2_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kpi"]["d_e_min"] == pytest.approx(0.8966, abs=1e-3)
        assert out["kpi"]["tau_e"] == 4
        assert sorted(out["kpi"]) == ["d_e_min", "d_p_min", "tau_e", "tau_p"]
        assert "il" not in out
        assert not list(tmp_path.glob("*.csv"))

    def test_rel_tol_flag_is_gone(self, table2_file, capsys):
        """Kissing numbers use one fixed tolerance, so there is none to pick."""
        assert main(["analyze", "--codebook", str(table2_file), "--rel-tol", "1e-3"]) == 2
        assert "--rel-tol" in capsys.readouterr().err

    def test_grid_writes_csv_and_manifest(self, table2_file, tmp_path, capsys):
        csv = tmp_path / "il.csv"
        code = main([
            "analyze", "--codebook", str(table2_file),
            "--n0-grid-db", "0:10:20", "--il-csv", str(csv),
        ])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "snr_db,resource,il_bits"
        # per resource plus one mean row per grid point
        assert len(lines) == 1 + 3 * 5
        manifest = json.loads((tmp_path / "il.csv.manifest.json").read_text())
        assert manifest["config"] == {"codebook": str(table2_file)}

    @pytest.mark.parametrize("flag,value,missing", [
        ("--n0-grid-db", "0:10:20", "--il-csv"),
        ("--il-csv", "il.csv", "--n0-grid-db"),
    ])
    def test_grid_and_csv_path_come_together(self, table2_file, tmp_path, monkeypatch,
                                             capsys, flag, value, missing):
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--codebook", str(table2_file), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {missing} is required when {flag} is given\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table2.json"]

    def test_unused_resource_grid_is_clean_error(self, tmp_path, capsys):
        """Resource 0 carries no user: the KPIs still print, and the bound
        grid ends in one error line and exit 2, not a traceback."""
        doc = codebook_to_dict(load_codebook("table2_awgn_6x4"))
        doc["F"][0] = [0] * 6
        for book in doc["codebooks"]:
            for cw in book:
                cw[0] = [0.0, 0.0]
        path = tmp_path / "unused.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--codebook", str(path)]) == 0
        capsys.readouterr()
        code = main([
            "analyze", "--codebook", str(path),
            "--n0-grid-db", "0:5:10", "--il-csv", str(tmp_path / "il.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: resource 0 has no users attached\n"

    @pytest.mark.parametrize("value", ["nan", "inf", float("nan"), float("-inf")])
    def test_non_finite_entry_is_usage_error(self, tmp_path, capsys, value):
        doc = codebook_to_dict(load_codebook("table2_awgn_6x4"))
        doc["codebooks"][1][2][0] = [0.5, value]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--codebook", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entry (1,2,0)" in captured.err


class TestSimulateCommand:
    def test_single_point_run(self, table2_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "simulate", "--codebook", str(table2_file), "--channel", "awgn",
            "--ebno", "10:1:10", "--target-errors", "40", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ebno_db,ser,errors,frames,seed"
        ebno, ser, errors, frames, seed = lines[1].split(",")
        assert float(ebno) == 10.0
        assert 1e-4 <= float(ser) <= 1e-2
        assert int(errors) >= 40
        assert (tmp_path / "sweep.csv.manifest.json").exists()

    def test_csv_rows_are_the_printed_estimates(self, table2_file, tmp_path, capsys):
        """One row per point: the SER with 10 significant digits, and the
        error and frame counts and the seed as integers."""
        out = tmp_path / "sweep.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "2:2:4",
            "--frames", "3000", "--seed", "16", "--out", str(out),
        ]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        lines = out.read_text().splitlines()
        assert lines[0] == "ebno_db,ser,errors,frames,seed"
        assert len(lines) == 1 + len(points) == 3
        for p, line in zip(points, lines[1:]):
            ebno, ser, errors, frames, seed = line.split(",")
            assert float(ebno) == p["ebno_db"]
            assert ser == f"{p['ser']:.10g}"
            assert float(ser) == pytest.approx(p["ser"], rel=1e-9)
            assert [errors, frames, seed] == [str(p[k]) for k in ("errors", "frames", "seed")]

    def test_same_seed_same_bytes(self, table2_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main([
                "simulate", "--codebook", str(table2_file), "--ebno", "2:2:4",
                "--frames", "3000", "--seed", "9", "--out", str(path),
            ])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_output(self, table2_file, tmp_path):
        outs = []
        for threads in ("1", "4"):
            path = tmp_path / f"t{threads}.csv"
            main([
                "simulate", "--codebook", str(table2_file), "--ebno", "3",
                "--frames", "9000", "--seed", "11", "--threads", threads,
                "--channel", "rayleigh", "--out", str(path),
            ])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_invalid_range_is_usage_error(self, table2_file, tmp_path):
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "bad:range",
            "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_non_finite_range_is_usage_error(self, table2_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "0:1:inf",
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == "error: range '0:1:inf' has a non-finite value\n"
        assert not out.exists()

    def test_oversized_range_is_usage_error(self, table2_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "0:1e-6:1",
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == "error: range '0:1e-6:1' has more than 10000 points\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-frames", "0"),
            ("--target-errors", "0"),
            ("--threads", "0"),
            ("--threads", "-3"),
            ("--frames", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_count_below_one_is_usage_error(self, table2_file, tmp_path, capsys,
                                            flag, value):
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "10",
            flag, value, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + flag[2:].replace("-", "_"))
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_max_frames_with_fixed_frames_is_usage_error(self, table2_file, tmp_path,
                                                         capsys):
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "10",
            "--frames", "64", "--max-frames", "10", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err == "error: --max-frames caps --target-errors runs, not --frames\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table2.json"]

    @pytest.mark.parametrize(
        "flags,max_frames",
        [
            (["--frames", "64"], DEFAULT_MAX_FRAMES),
            (["--max-frames", "64"], 64),
            (["--target-errors", "5", "--max-frames", "64"], 64),
        ],
    )
    def test_manifest_records_the_frame_cap(self, table2_file, tmp_path, flags,
                                            max_frames):
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "0",
            *flags, "--out", str(out),
        ]) == 0
        config = json.loads((tmp_path / "x.csv.manifest.json").read_text())["config"]
        assert config["max_frames"] == max_frames
        assert config["frames"] == (64 if flags[0] == "--frames" else None)
        assert config["target_errors"] == (5 if "5" in flags else DEFAULT_TARGET_ERRORS)

    def test_unknown_flag_is_usage_error(self, table2_file, capsys):
        assert main(["simulate", "--codebook", str(table2_file), "--nope"]) == 2

    def test_mpa_domain_flag_is_gone(self, table2_file, tmp_path, capsys):
        """Sum-product has one path, so there is no arithmetic to pick."""
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "10",
            "--frames", "64", "--mpa-domain", "log", "--out", str(out),
        ]) == 2
        assert "--mpa-domain" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_no_domain(self, table2_file, tmp_path):
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--codebook", str(table2_file), "--ebno", "10",
            "--frames", "64", "--out", str(out),
        ]) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert "mpa_domain" not in manifest["config"]


class TestOptimizeCommand:
    def test_zero_iterations_emits_initial_best(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "optimize", "--template", "6x4", "--ebno", "10", "--np", "20",
            "--max-iter", "0", "--frames-per-eval", "400", "--seed", "1",
            "--crn", "fixed", "--out", str(out),
        ])
        assert code == 0
        artifact = json.loads((out / "run.json").read_text())
        assert len(artifact["history"]) == 1
        assert artifact["config"]["s_p"] == 20
        assert artifact["config"]["alpha"] == 0.6
        assert artifact["config"]["c_r"] == 0.95
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "generation,best_ser"
        assert len(history) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"history.csv", "codebook.json", "run.json"}

    def test_history_nonincreasing_and_codebook_valid(self, tmp_path, capsys):
        out = tmp_path / "run2"
        code = main([
            "optimize", "--template", "6x4", "--ebno", "10", "--np", "6",
            "--max-iter", "3", "--frames-per-eval", "1200", "--seed", "5",
            "--crn", "fixed", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "history.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert all(a >= b for a, b in zip(values, values[1:]))
        capsys.readouterr()
        assert main(["validate", "--codebook", str(out / "codebook.json")]) == 0

    def test_template_file_accepted(self, tmp_path, capsys):
        tfile = tmp_path / "custom.json"
        tfile.write_text(json.dumps(template_doc(builtin_template("6x4"))))
        out = tmp_path / "run3"
        code = main([
            "optimize", "--template", str(tfile), "--ebno", "10", "--np", "4",
            "--max-iter", "0", "--frames-per-eval", "300", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0

    @pytest.mark.parametrize("flag,value,field", [
        ("--max-iter", "-3", "i_max"), ("--plateau-window", "-1", "plateau_window"),
        ("--plateau-eps", "-0.5", "plateau_eps"), ("--seed", "-1", "seed"),
    ])
    def test_negative_stopping_control_is_usage_error(self, tmp_path, capsys,
                                                      flag, value, field):
        out = tmp_path / "run"
        code = main([
            "optimize", "--template", "6x4", "--ebno", "10", "--np", "4",
            "--max-iter", "0", "--frames-per-eval", "300", flag, value,
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--f", "nan", "alpha"), ("--f", "inf", "alpha"),
    ])
    def test_non_finite_input_is_usage_error(self, tmp_path, capsys, flag,
                                             value, field):
        """A NaN mutation factor used to simulate the whole initial
        population before failing on a non-finite received signal."""
        out = tmp_path / "run"
        code = main([
            "optimize", "--template", "6x4", "--ebno", "10", "--np", "4",
            "--max-iter", "1", "--frames-per-eval", "300", flag, value,
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {field} must be finite")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_malformed_template_file_is_usage_error(self, tmp_path, capsys):
        """A slot cell of sign 2, and slots that are not 3-D."""
        bad_cell = template_doc(builtin_template("6x4"))
        bad_cell["slots"][0][0][0] = {"p": 0, "s": 2}
        for doc, err in [
            (bad_cell, "malformed slot entry: {'p': 0, 's': 2}"),
            ({**bad_cell, "slots": []}, "slots must be a (J, M, K) array"),
        ]:
            tfile = tmp_path / "bad.json"
            tfile.write_text(json.dumps(doc))
            code = main([
                "optimize", "--template", str(tfile), "--ebno", "10", "--np", "4",
                "--max-iter", "0", "--out", str(tmp_path / "run"),
            ])
            assert code == 2
            assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("num_params,err", [
        (6.9, "missing or invalid template field: num_params must be an integer, got 6.9"),
        (7, "template custom: num_params is 7, but the slots place 6 parameters"),
    ], ids=["fractional", "unreferenced"])
    def test_bad_parameter_count_is_usage_error(self, tmp_path, capsys, num_params,
                                                err):
        """6.9 used to load as 6, and 7 used to search two dimensions that
        change nothing; both ran the search and exited 0."""
        doc = template_doc(builtin_template("6x4"))
        doc["name"], doc["num_params"] = "custom", num_params
        tfile = tmp_path / "custom.json"
        tfile.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main([
            "optimize", "--template", str(tfile), "--ebno", "10", "--np", "4",
            "--max-iter", "0", "--frames-per-eval", "300", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_non_string_template_name_is_usage_error(self, tmp_path, capsys):
        """A name of [1, 2] used to load as the template '[1, 2]'."""
        doc = template_doc(builtin_template("6x4"))
        doc["name"] = [1, 2]
        tfile = tmp_path / "custom.json"
        tfile.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main([
            "optimize", "--template", str(tfile), "--ebno", "10", "--np", "4",
            "--max-iter", "0", "--frames-per-eval", "300", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: missing or invalid template field: name must be a string, "
            "got [1, 2]\n")
        assert not out.exists()

    def test_six_codeword_template_is_usage_error(self, tmp_path, capsys,
                                                  normalize_calls):
        """Such a file used to load, and the run renormalized its whole
        population before failing on the first codebook set."""
        tfile = tmp_path / "six.json"
        tfile.write_text(json.dumps(six_codeword_template_doc()))
        out = tmp_path / "run"
        assert main([
            "optimize", "--template", str(tfile), "--ebno", "10", "--np", "20",
            "--max-iter", "1", "--frames-per-eval", "256", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == "error: M must be a power of 2, got 6\n"
        assert not out.exists()
        assert normalize_calls == []

    def test_unknown_template_name_is_usage_error(self, tmp_path, capsys):
        code = main([
            "optimize", "--template", "9x5", "--ebno", "10", "--np", "4",
            "--max-iter", "0", "--out", str(tmp_path / "run4"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "9x5" in err and "12x6" in err and "Traceback" not in err


class TestOutputPaths:
    """An output path that cannot be written is a one-line usage error,
    raised before any frame is simulated, and no file is written."""

    @pytest.fixture(autouse=True)
    def no_frames(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a frame was simulated")

        monkeypatch.setattr(montecarlo, "draw_frame_block", draw)

    @pytest.mark.parametrize("command,where", [
        (["simulate", "--codebook", "table2.json", "--ebno", "10", "--frames", "64",
          "--out"], "missing/x.csv"),
        (["simulate", "--codebook", "table2.json", "--ebno", "10", "--frames", "64",
          "--out"], "."),
        (["analyze", "--codebook", "table2.json", "--n0-grid-db", "0:10:20",
          "--il-csv"], "missing/il.csv"),
        (["optimize", "--template", "6x4", "--ebno", "10", "--np", "4",
          "--max-iter", "1", "--frames-per-eval", "256", "--out"], "table2.json"),
        (["optimize", "--template", "6x4", "--ebno", "10", "--np", "4",
          "--max-iter", "1", "--frames-per-eval", "256", "--out"], "table2.json/run"),
    ], ids=["simulate-missing-dir", "simulate-dir", "analyze-missing-dir",
            "optimize-existing-file", "optimize-under-a-file"])
    def test_unwritable_path_is_usage_error(self, table2_file, tmp_path, monkeypatch,
                                            capsys, command, where):
        monkeypatch.chdir(tmp_path)
        before = table2_file.read_bytes()
        assert main(command + [where]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {where}: ")
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table2.json"]
        assert table2_file.read_bytes() == before

    def test_fixture_dump_to_missing_dir_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["fixture", "table2_awgn_6x4", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestEbn0Range:
    """An Eb/N0 whose noise variance is not finite and positive is a one-line
    usage error, raised before any point runs, and no file is written."""

    @pytest.fixture(autouse=True)
    def no_points(self, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("a point was run")

        monkeypatch.setattr(montecarlo, "draw_frame_block", run)
        monkeypatch.setattr(cli, "i_lower_bound_profile", run)

    @pytest.mark.parametrize("command", [
        ["simulate", "--ebno=5000"],
        ["simulate", "--ebno=-5000"],
        ["simulate", "--ebno=-3100"],
        ["simulate", "--ebno=0:1000:4000"],
        ["analyze", "--n0-grid-db=5000"],
        ["analyze", "--n0-grid-db=0:2500:5000"],
        ["analyze", "--n0-grid-db=-5000"],
        ["optimize", "--ebno=5000"],
        ["optimize", "--ebno=nan"],
        ["optimize", "--ebno=inf"],
        ["optimize", "--ebno=-inf"],
    ], ids=lambda c: " ".join(c))
    def test_out_of_range_is_usage_error(self, table2_file, tmp_path, monkeypatch,
                                         capsys, normalize_calls, command):
        rest = {
            "simulate": ["--codebook", "table2.json", "--frames", "64",
                         "--out", "x.csv"],
            "analyze": ["--codebook", "table2.json", "--il-csv", "il.csv"],
            "optimize": ["--template", "6x4", "--np", "4", "--max-iter", "1",
                         "--frames-per-eval", "64", "--out", "run"],
        }[command[0]]
        monkeypatch.chdir(tmp_path)
        assert main(command + rest) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Eb/N0 ") and "out of range" in err
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table2.json"]
        assert normalize_calls == []


def crowded_codebook() -> CodebookSet:
    """25 users on one resource: their weight table has 4**25 entries."""
    books = np.zeros((25, 4, 1), complex)
    books[:, :, 0] = [1.0, 0.5, -0.5, -1.0]
    return CodebookSet(books)


class TestAllocationRefused:
    """A size numpy cannot allocate is a one-line usage error, not a
    traceback, and no file is written.  Every size exceeds 2**47 bytes and
    is asked for at once, so the allocation fails before any memory is
    touched."""

    @pytest.fixture()
    def crowded_file(self, tmp_path):
        path = tmp_path / "crowded.json"
        write_codebook_json(crowded_codebook(), path)
        return path

    def assert_refused(self, argv, tmp_path, capsys, left=()):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert len(captured.err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(left)

    def test_population_too_large(self, tmp_path, capsys):
        self.assert_refused([
            "optimize", "--template", "6x4", "--ebno", "8", "--np", str(10 ** 15),
            "--max-iter", "1", "--frames-per-eval", "256", "--out", str(tmp_path / "run"),
        ], tmp_path, capsys)

    def test_weight_table_too_large(self, tmp_path, capsys, crowded_file):
        self.assert_refused([
            "simulate", "--codebook", str(crowded_file), "--ebno", "10", "--frames", "64",
            "--out", str(tmp_path / "x.csv"),
        ], tmp_path, capsys, [crowded_file.name])

    def test_sum_constellation_too_large(self, tmp_path, capsys, crowded_file):
        self.assert_refused([
            "analyze", "--codebook", str(crowded_file), "--n0-grid-db=10",
            "--il-csv", str(tmp_path / "il.csv"),
        ], tmp_path, capsys, [crowded_file.name])

    def test_refusal_touches_no_memory(self):
        """The detector asks for the whole 25-user table before it fills
        anything, so the refusal holds under 1 MiB on the way.  numpy 2
        traces a failed request as a live allocation, so the transient
        memory is the traced peak less what is still traced after the
        refusal."""
        cbs = crowded_codebook()
        y = np.zeros((64, 1), complex)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                mpa_detect_batch(y, cbs, None, 0.1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < 2 ** 20


class TestNumpyOnlyRuntime:
    def test_every_command_runs_without_scipy(self, tmp_path):
        """With scipy made unimportable before ``import scma``, every command
        runs at toy size and exits 0: scipy is a test dependency only."""
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from scma.cli import main\n"
            "commands = [\n"
            "    ['fixture', 'table2_awgn_6x4', 'cb.json'],\n"
            "    ['validate', '--codebook', 'cb.json'],\n"
            "    ['analyze', '--codebook', 'cb.json', '--n0-grid-db', '0:10:20',\n"
            "     '--il-csv', 'il.csv'],\n"
            "    ['simulate', '--codebook', 'cb.json', '--ebno', '8', '--frames', '512',\n"
            "     '--out', 'awgn.csv'],\n"
            "    ['simulate', '--codebook', 'cb.json', '--channel', 'rayleigh',\n"
            "     '--ebno', '8', '--frames', '512', '--out', 'rayleigh.csv'],\n"
            "    ['optimize', '--template', '6x4', '--ebno', '10', '--np', '4',\n"
            "     '--max-iter', '1', '--frames-per-eval', '256', '--out', 'run'],\n"
            "]\n"
            "print(json.dumps([main(argv) for argv in commands]))\n"
        )
        src = str(Path(scma.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0] * 6, proc.stderr


class TestThreadsDefault:
    @pytest.mark.parametrize("command", [
        ["simulate", "--codebook", "x", "--ebno", "1", "--out", "y"],
        ["optimize", "--template", "6x4", "--ebno", "1", "--out", "y"],
    ], ids=["simulate", "optimize"])
    def test_both_commands_default_to_one_thread(self, command):
        assert build_parser().parse_args(command).threads == 1

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_optimize_thread_count_below_one_is_usage_error(self, tmp_path, capsys,
                                                            value):
        out = tmp_path / "run"
        assert main([
            "optimize", "--template", "6x4", "--ebno", "10", "--np", "4",
            "--max-iter", "0", "--frames-per-eval", "64", "--threads", value,
            "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: threads must be an integer >= 1, got {value}\n"
        assert not out.exists()
