"""Tests for the command-line front end: parsing, dispatch, outputs, exit codes."""

import collections
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, example, given, settings, strategies

from wmtradeoff import bench, cli, qubit, sweeps, tables
from wmtradeoff.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    ConfigError,
    RunConfig,
    main,
    parse_config,
)
from wmtradeoff.sweeps import cross_section

STATES_HEADER = "alpha,gain_analytic,rev_analytic,gain_mc,rev_mc"


class TestParseConfig:
    def test_defaults(self):
        sub, config, mutate = parse_config(["verify"])
        assert sub == "verify"
        assert config == RunConfig()
        assert mutate is False

    def test_flags_override_defaults(self):
        _, config, _ = parse_config(
            ["sweep-states", "--epsilon", "0.1", "--eta", "0.9", "--seed", "7"]
        )
        assert (config.epsilon, config.eta, config.seed) == (0.1, 0.9, 7)

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n# comment line\nphotons_per_setting = 5000\n")
        _, config, _ = parse_config(["verify", "--config", str(cfg), "--seed", "9"])
        assert config.seed == 9
        assert config.photons_per_setting == 5000

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(["verify", "--config", str(cfg)])

    def test_malformed_value_rejected(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(["verify", "--epsilon", "abc"])

    def test_out_of_range_names_field_and_range(self):
        with pytest.raises(ConfigError, match=r"epsilon must lie in \[0, 1\]"):
            parse_config(["verify", "--epsilon", "1.5"])

    @pytest.mark.parametrize("size", ["257", "2147483648"])
    def test_grid_size_capped(self, size, tmp_path, capsys, monkeypatch):
        def unreachable(**kwargs):
            raise AssertionError("sweep ran on a rejected grid size")

        monkeypatch.setattr(cli, "grid_sweep", unreachable)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid_size = {size}\n")
        for argv in (["--grid-size", size], ["--config", str(cfg)]):
            assert main(["sweep-grid", *argv]) == EXIT_CONFIG_ERROR
            assert f"grid_size must lie in [2, 256], got {size}" in capsys.readouterr().err
        assert parse_config(["sweep-grid", "--grid-size", "256"])[1].grid_size == 256

    @pytest.mark.parametrize(
        "name, cap, subcommand",
        [
            ("photons_per_setting", 2**63 - 1, "sweep-grid"),
            ("counts_per_basis", (2**63 - 1) // 2, "reversal-fidelity"),
        ],
    )
    def test_count_caps(self, name, cap, subcommand, tmp_path, capsys):
        # One above the largest count the count path can represent is a
        # one-line config error, from the flag and from the config file.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {cap + 1}\n")
        flag = "--" + name.replace("_", "-")
        for argv in ([flag, str(cap + 1)], ["--config", str(cfg)]):
            assert main([subcommand, "--grid-size", "2", *argv]) == EXIT_CONFIG_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"config error: {name} must lie in [")
            assert captured.err.endswith(f", got {cap + 1}\n")
            assert captured.err.count("\n") == 1
        assert getattr(parse_config([subcommand, flag, str(cap)])[1], name) == cap

    @pytest.mark.parametrize("exact", ["true", "false"])
    def test_largest_counts_run(self, exact, capsys):
        largest = ["--photons-per-setting", str(2**63 - 1), "--grid-size", "2",
                   "--counts-per-basis", str((2**63 - 1) // 2), "--exact-mode", exact]
        for subcommand in ("sweep-grid", "sweep-states", "cross-section", "reversal-fidelity"):
            assert main([subcommand, *largest]) == EXIT_OK, capsys.readouterr().err
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "nan" not in captured.out.replace("low_stats", "")

    def test_bool_values(self):
        _, config, _ = parse_config(["verify", "--exact-mode", "true"])
        assert config.exact_mode is True
        _, config, _ = parse_config(["verify", "--exact-mode", "0"])
        assert config.exact_mode is False
        with pytest.raises(ConfigError, match="exact_mode"):
            parse_config(["verify", "--exact-mode", "maybe"])

    def test_output_format_validated(self):
        with pytest.raises(ConfigError, match="output_format"):
            parse_config(["verify", "--output-format", "xml"])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["frobnicate"])

    def test_config_file_with_byte_order_mark_accepted(self, tmp_path, capsys):
        # Some editors start a UTF-8 file with a byte-order mark; it is not
        # part of the first key.
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed = 4\ngrid_size = 3\n")
        _, config, _ = parse_config(["cross-section", "--config", str(cfg)])
        assert (config.seed, config.grid_size) == (4, 3)
        assert main(["cross-section", "--exact-mode", "true", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_flag_overrides_out_of_range_file_value(self, tmp_path, capsys):
        # Only the resolved values are range-checked: a valid flag mends an
        # out-of-range file value.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon = 7\ngrid_size = 1\n")
        argv = ["cross-section", "--exact-mode", "true", "--config", str(cfg),
                "--epsilon", "0.5", "--grid-size", "3"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("\n") == 4

    @pytest.mark.parametrize(
        "file_text, flags, message",
        [
            # Parse errors come first: the file's, in line order, then the flags'.
            ("seed = x\nepsilon = y\n", [], "seed: expected an integer, got 'x'"),
            ("seed = x\n", ["--epsilon", "abc"], "seed: expected an integer, got 'x'"),
            ("eta = 7\n", ["--seed", "x"], "seed: expected an integer, got 'x'"),
            # A file value is parsed even where a flag overrides it.
            ("seed = x\n", ["--seed", "3"], "seed: expected an integer, got 'x'"),
            # Flags are parsed in table order, not in argv order.
            ("", ["--seed", "x", "--epsilon", "y"], "epsilon: expected a number, got 'y'"),
            # Then the first out-of-range key in table order, wherever it was set.
            ("grid_size = 1\n", ["--epsilon", "2"], "epsilon must lie in [0, 1], got 2.0"),
            ("epsilon = 2\n", ["--grid-size", "1"], "epsilon must lie in [0, 1], got 2.0"),
            ("", ["--grid-size", "1", "--detector-efficiency", "0"],
             "detector_efficiency must lie in (0, 1], got 0.0"),
            ("counts_per_basis = 99\nseed = -1\n", [],
             "counts_per_basis must lie in [100, 2^62 - 1], got 99"),
        ],
    )
    def test_first_of_two_errors_reported(self, file_text, flags, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_text)
        assert main(["cross-section", "--config", str(cfg), *flags]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestDispatchProducts:
    def test_verify_default_emits_json_all_pass(self, capsys):
        code = main(["verify", "--grid-size", "6", "--photons-per-setting", "20000"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metadata", "checks"}
        assert doc["metadata"]["seed"] == 42
        assert all(check["verdict"] == "PASS" for check in doc["checks"])

    @pytest.mark.parametrize("mutate", [False, True])
    def test_verify_detail_is_json_only(self, mutate, capsys):
        # The detail column is free text (a count, a crashed check's message):
        # the CSV leaves it out by verify's _PRODUCTS row; JSON keeps it per row.
        argv = ["verify", "--exact-mode", "true", "--grid-size", "2"]
        argv += ["--mutate-reversal"] * mutate
        assert main(argv + ["--output-format", "csv"]) == (EXIT_VERIFY_FAIL if mutate else EXIT_OK)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "check,verdict,deviation,tolerance"
        assert len(lines) == 16 and all(line.count(",") == 3 for line in lines)
        main(argv)
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) == 15
        header = ["check", "verdict", "deviation", "tolerance", "detail"]
        assert [list(check) for check in checks] == [header] * 15

    @pytest.mark.parametrize("seed", [80, 160, 180, 380])
    def test_verify_passes_where_three_stderr_oracle_failed(self, seed, capsys):
        assert main(["verify", "--seed", str(seed)]) == EXIT_OK
        assert "FAILED" not in capsys.readouterr().err

    def test_verify_mutated_exits_two_with_names_on_stderr(self, capsys):
        code = main(
            ["verify", "--mutate-reversal", "--grid-size", "6", "--photons-per-setting", "20000"]
        )
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY_FAIL
        assert "reversal_exactness" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-states", "--photons-per-setting", "2", "--detector-efficiency", "0.5"],
            ["sweep-grid", "--photons-per-setting", "1", "--detector-efficiency", "0.9"],
            ["verify", "--photons-per-setting", "1", "--grid-size", "2"],
        ],
    )
    def test_exact_mode_below_one_expected_photon(self, argv, capsys):
        # Exact counts are expected values, so a measured total below one
        # photon still forms a ratio, and detector efficiency cancels in it.
        assert main([*argv, "--exact-mode", "true"]) == EXIT_OK
        out = capsys.readouterr().out
        if argv[0] == "verify":
            assert [c["verdict"] for c in json.loads(out)["checks"]] == ["PASS"] * 15
            return
        pairs = {"sweep-states": ("gain", "rev"), "sweep-grid": ("prev",)}[argv[0]]
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for row in rows:
            for name in pairs:
                assert float(row[name + "_mc"]) == pytest.approx(
                    float(row[name + "_analytic"]), abs=2e-9
                )

    @pytest.mark.parametrize("exact", [True, False])
    def test_verify_passes_at_low_detector_efficiency(self, exact, capsys):
        # 2,000 photons at d = 0.001 expect 2 measured per state: the
        # determinism check draws enough to clear the sampled floor at d.
        noise = bench.NoiseModel(detector_efficiency=0.001)
        report = sweeps.verify(100_000, noise, exact_mode=exact)
        assert report["verdict"].tolist() == ["PASS"] * 15
        argv = ["verify", "--detector-efficiency", "0.001", "--exact-mode", str(exact).lower()]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_verify_passes_at_the_least_drawable_efficiency(self, capsys):
        # At d = 5e-18 the determinism sweeps draw 8e18 photons, under 2^63.
        argv = ["verify", "--exact-mode", "true", "--detector-efficiency", "5e-18"]
        assert main([*argv, "--grid-size", "4"]) == EXIT_OK
        captured = capsys.readouterr()
        assert [c["verdict"] for c in json.loads(captured.out)["checks"]] == ["PASS"] * 15
        assert captured.err == ""

    @pytest.mark.parametrize("efficiency", [4.3e-18, 1e-20, 5e-324])
    def test_verify_refuses_an_undrawable_efficiency(self, efficiency, capsys):
        # No photon count up to 2^63 - 1 clears the sampled floor, so the
        # determinism sweeps could not draw: refused before any check runs.
        message = (
            "detector_efficiency must let some photons_per_setting up to 2^63 - 1 reach "
            f"photons_per_setting * detector_efficiency >= 40, got {efficiency!r}"
        )
        noise = bench.NoiseModel(detector_efficiency=efficiency)
        with pytest.raises(ValueError, match=re.escape(message)):
            sweeps.verify(100_000, noise, exact_mode=True, grid_size=4)
        argv = ["verify", "--exact-mode", "true", "--detector-efficiency", repr(efficiency)]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("subcommand", [s for s in cli.SUBCOMMANDS if s != "verify"])
    def test_mutate_reversal_refused_outside_verify(self, subcommand, capsys):
        # The hook corrupts verify's reversal operators; no product reads it.
        assert main([subcommand, "--mutate-reversal"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == (
            "", f"config error: --mutate-reversal applies to verify only, not {subcommand}\n"
        )

    @pytest.mark.parametrize("grid_size", [2, 5, 64])
    def test_cross_section_is_the_lattice_edge(self, grid_size, capsys):
        # The exact cross section is the epsilon = 0 row of the exact lattice.
        argv = ["cross-section", "--exact-mode", "true", "--grid-size", str(grid_size)]
        assert main(argv) == EXIT_OK
        edge = {
            name: column[:grid_size]
            for name, column in sweeps.grid_sweep(grid_size, seed=None).items()
        }
        assert (edge["epsilon"] == 0.0).all()
        section = {"eta": edge["eta"], "six_gmax": 6.0 * edge["gmax_analytic"],
                   "prev": edge["prev_analytic"], "sum": edge["sum_analytic"]}
        assert capsys.readouterr().out == tables.csv_table(section)

    def test_cross_section_exact_sum_column(self, tmp_path):
        out = tmp_path / "cross.csv"
        code = main(["cross-section", "--exact-mode", "true", "--output-path", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "eta,six_gmax,prev,sum"
        assert len(lines) == 17
        assert all(line.split(",")[3] == "4.000000000" for line in lines[1:])

    def test_sweep_grid_row_count_and_order(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["sweep-grid", "--exact-mode", "true", "--output-path", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "epsilon,eta,gmax_analytic,prev_analytic,sum_analytic,"
            "gmax_mc,prev_mc,sum_mc,diagonal_flag"
        )
        assert len(lines) == 257
        eps_column = [line.split(",")[0] for line in lines[1:]]
        assert eps_column == sorted(eps_column)  # row-major by epsilon
        first = lines[1].split(",")
        assert (first[0], first[1]) == ("0.000000000", "0.000000000")

    def test_sweep_states_schema(self, tmp_path):
        out = tmp_path / "states.csv"
        code = main(
            ["sweep-states", "--exact-mode", "true", "--output-path", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == STATES_HEADER
        assert len(lines) == 52

    @pytest.mark.parametrize("value", ["0", "0.3", "1"])
    def test_exact_tie_gain_columns_agree(self, value, capsys):
        # The kernel and the count-ratio estimator apply one guess rule.
        argv = ["sweep-states", "--epsilon", value, "--eta", value, "--exact-mode", "true"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == STATES_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 51
        assert all(row[1] == row[3] for row in rows)

    def test_reversal_fidelity_schema_and_flags(self, tmp_path):
        out = tmp_path / "fid.csv"
        code = main(
            [
                "reversal-fidelity",
                "--exact-mode",
                "true",
                "--counts-per-basis",
                "1000",
                "--output-path",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,fidelity,low_stats_flag"
        assert len(lines) == 52
        assert all(line.split(",")[2] in ("0", "1") for line in lines[1:])

    def test_low_stats_rows_print_nan(self, tmp_path):
        out = tmp_path / "fid_pvnm.csv"
        code = main(
            [
                "reversal-fidelity",
                "--epsilon", "0",
                "--eta", "1",
                "--counts-per-basis", "1000",
                "--output-path", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "nan" and row.split(",")[2] == "1" for row in rows)

    def test_csv_round_trips_at_printed_precision(self, tmp_path):
        out = tmp_path / "states.csv"
        main(
            [
                "sweep-states",
                "--photons-per-setting", "20000",
                "--output-path", str(out),
            ]
        )
        for line in out.read_text().splitlines()[1:]:
            for cell in line.split(","):
                assert f"{float(cell):.9f}" == cell

    def test_json_output_shape(self, capsys):
        code = main(
            ["sweep-states", "--exact-mode", "true", "--output-format", "json"]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metadata", "rows"}
        assert len(doc["rows"]) == 51
        assert doc["metadata"]["config"]["exact_mode"] is True
        assert set(doc["rows"][0]) == set(STATES_HEADER.split(","))

    def test_json_refuses_non_finite_numbers(self):
        # Row cells write non-finite numbers as null; a non-finite metadata
        # value fails the document instead of producing invalid JSON.
        rows = cross_section([0.5], seed=None)
        with pytest.raises(ValueError):
            tables.json_document({"seed": float("nan")}, "rows", rows)

    def test_sampled_json_names_its_stream_scheme(self, capsys):
        for exact, stream in (("false", "per-cell-v4"), ("true", None)):
            argv = ["sweep-grid", "--grid-size", "2", "--exact-mode", exact,
                    "--output-format", "json"]
            assert main(argv) == EXIT_OK
            metadata = json.loads(capsys.readouterr().out)["metadata"]
            assert metadata.get("stream") == stream
            assert list(metadata)[:3] == ["seed", "version", "config"]

    def test_output_file_replaced_whole(self, tmp_path):
        out = tmp_path / "cross.csv"
        out.write_text("stale\n")
        args = ["cross-section", "--exact-mode", "true", "--output-path", str(out)]
        assert main(args) == EXIT_OK
        assert out.read_text().startswith("eta,six_gmax,prev,sum\n")
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["cross.csv"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        real_fdopen = os.fdopen

        class HalfWrite:
            """A file that writes half of its text, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda *a, **k: HalfWrite(real_fdopen(*a, **k)))
        kept = tmp_path / "kept.csv"
        kept.write_text("previous\n")
        for out in (tmp_path / "new.csv", kept):
            args = ["sweep-states", "--exact-mode", "true", "--output-path", str(out)]
            assert main(args) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert f"cannot write output to {out}: No space left on device" in err
            assert ".wmtradeoff-" not in err
        assert os.listdir(tmp_path) == ["kept.csv"]
        assert kept.read_text() == "previous\n"

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep-states", "--photons-per-setting", "20000", "--seed", "13"]
        assert main(args + ["--output-path", str(out_a)]) == EXIT_OK
        assert main(args + ["--output-path", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unwritable_path_exits_one(self, capsys):
        # The message names the path given, not the temporary file beside it.
        path = "/nonexistent_dir_xyz/out.csv"
        code = main(["cross-section", "--exact-mode", "true", "--output-path", path])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"cannot write output to {path}: " in err
        assert ".wmtradeoff-" not in err

    @pytest.mark.parametrize("where", ["flag", "config file"])
    def test_empty_output_path_refused(self, where, tmp_path, capsys, monkeypatch):
        # An empty path names no file and is not stdout: refused while parsing.
        monkeypatch.chdir(tmp_path)
        args = ["sweep-states", "--exact-mode", "true"]
        if where == "flag":
            args += ["--output-path", ""]
        else:
            (tmp_path / "run.cfg").write_text("output_path =\n", encoding="utf-8")
            args += ["--config", "run.cfg"]
        assert main(args) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: output_path: expected a file path, got ''\n"
        assert sorted(os.listdir(tmp_path)) == (["run.cfg"] if where == "config file" else [])

    def test_config_error_exits_one(self, capsys):
        assert main(["verify", "--epsilon", "1.5"]) == EXIT_CONFIG_ERROR
        assert "epsilon" in capsys.readouterr().err


# Every subcommand, exact and sampled, and verify with the mutation hook.
CLI_RUNS = [
    [subcommand, "--exact-mode", exact]
    for subcommand in cli.SUBCOMMANDS
    for exact in ("true", "false")
] + [["verify", "--exact-mode", exact, "--mutate-reversal"] for exact in ("true", "false")]


# The names perfbench/spans.py wraps: three functions that sweeps calls, and
# the physicality gate of qubit.Operator2, and how often one verify reaches each.
TRACED_SCALAR_CALLS = {
    "apply_operator": 2, "per_state_gain": 1, "per_state_reversal_prob": 2, "is_physical_kraus": 2,
}


class TestScalarLayerReached:
    def test_verify_reaches_every_traced_scalar_name(self, monkeypatch, capsys):
        # reversal_exactness measures and reverses through apply_operator,
        # whose gate is the property; phase_invariance and
        # reversal_state_constancy read the per-state views. The other
        # products reach none of them.
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("apply_operator", "per_state_gain", "per_state_reversal_prob"):
            monkeypatch.setattr(sweeps, name, counted(name, getattr(sweeps, name)))
        gate = vars(qubit.Operator2)["is_physical_kraus"].fget
        monkeypatch.setattr(
            qubit.Operator2, "is_physical_kraus", property(counted("is_physical_kraus", gate))
        )
        for argv in CLI_RUNS:
            calls.clear()
            code = main(argv)
            capsys.readouterr()
            expected = TRACED_SCALAR_CALLS if argv[0] == "verify" else {}
            assert (code == EXIT_VERIFY_FAIL) == ("--mutate-reversal" in argv), argv
            assert dict(calls) == expected, argv


class TestProcessLevelExitCodes:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "wmtradeoff", *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_exit_zero_on_success(self):
        proc = self.run_cli("cross-section", "--exact-mode", "true")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.startswith("eta,six_gmax,prev,sum")

    def test_exit_one_on_config_error(self):
        proc = self.run_cli("verify", "--epsilon", "1.5")
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert "epsilon" in proc.stderr

    def test_exit_one_on_config_file_not_utf8(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 4\xff\n")
        proc = self.run_cli("verify", "--config", str(cfg))
        assert proc.returncode == EXIT_CONFIG_ERROR
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"config error: cannot read config file {str(cfg)!r}: ")

    def test_exit_two_on_verification_failure(self):
        proc = self.run_cli(
            "verify", "--mutate-reversal", "--grid-size", "6",
            "--photons-per-setting", "20000",
        )
        assert proc.returncode == EXIT_VERIFY_FAIL
        assert "reversal_exactness" in proc.stderr


# Per config key: accepted boundary values, then rejected ones (just outside
# the range, malformed, or an unwritable path). Accepted grid sizes stay at or
# below 4 so that each example runs fast.
_UNIT = (["0", "1", "0.5", "-0.0", "5e-324", "0.9999999999999999"],
         ["1.0000000001", "-1e-300", "nan", "inf", "-inf", "1e308", "abc", ""])
FUZZ_VALUES = {
    "epsilon": _UNIT,
    "eta": _UNIT,
    "photons_per_setting": (["1", "2", str(bench.MAX_PHOTONS)],
                            ["0", "-1", str(bench.MAX_PHOTONS + 1), "1" + "0" * 30, "1.5", ""]),
    "counts_per_basis": (["100", "101", str(bench.MAX_PHOTONS // 2)],
                         ["99", str(bench.MAX_PHOTONS // 2 + 1), "-5", "x"]),
    "seed": (["0", "1", str(2**64 - 1)], [str(2**64), "-1", "0x10"]),
    "pbs_leakage": (["0", "0.01", "5e-324", "-0.0"], ["0.0100000001", "nan", "-1"]),
    "detector_efficiency": (["1", "5e-324", "0.5"], ["0", "1.0000001", "nan", "-inf"]),
    "grid_size": (["2", "3", "4"], ["1", "0", "-1", str(2**70), "2.0"]),
    "exact_mode": (["true", "false", "1", "0", "TRUE"], ["yes", ""]),
    "output_format": (["csv", "json", " JSON "], ["xml", ""]),
    "output_path": (["out.txt"], ["missing/out.txt", "."]),
}


# The stderr line of a verify check that raised.
RAISED_LINE = re.compile(r"verify: [a-z_]+ raised at [\w.]+:\d+ in \w+")


@strategies.composite
def cli_configs(draw):
    """Config values, at most one of them rejected, and the keys set through a config file."""
    values = {}
    for key, (accepted, _) in FUZZ_VALUES.items():
        value = strategies.sampled_from(accepted)
        value = draw(value if key == "grid_size" else strategies.none() | value)
        if value is not None:
            values[key] = value
    bad = draw(strategies.none() | strategies.sampled_from(sorted(FUZZ_VALUES)))
    if bad is not None:
        values[bad] = draw(strategies.sampled_from(FUZZ_VALUES[bad][1]))
    return values, draw(strategies.sets(strategies.sampled_from(sorted(values))))


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_product(text: str, fmt: str) -> None:
    if fmt == "json":
        json.loads(text, parse_constant=_refuse_constant)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == len(rows[0]) for row in rows)


class TestCliFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        subcommand=strategies.sampled_from(cli.SUBCOMMANDS),
        mutate=strategies.booleans(),
        config=cli_configs(),
    )
    # Sampled N = 1 is below the floor on N * d: refused before any check runs.
    @example("verify", False, ({"photons_per_setting": "1", "grid_size": "2"}, set()))
    # Low efficiency: rng_determinism draws enough photons to clear the floor at d.
    @example("verify", False, ({"detector_efficiency": "0.001", "grid_size": "2"}, set()))
    def test_exit_codes_messages_and_products(self, subcommand, mutate, config):
        values, in_file = dict(config[0]), config[1]
        with tempfile.TemporaryDirectory() as tmp:
            path = values.get("output_path")
            if path is not None:
                path = values["output_path"] = os.path.join(tmp, path)
            argv = [subcommand] + ["--mutate-reversal"] * mutate
            argv += [f"--{k.replace('_', '-')}={v}" for k, v in values.items() if k not in in_file]
            if in_file:
                cfg = os.path.join(tmp, "run.cfg")
                with open(cfg, "w", encoding="utf-8") as fh:
                    fh.writelines(f"{k} = {values[k]}\n" for k in sorted(in_file))
                argv += ["--config", cfg]

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            out, err = out.getvalue(), err.getvalue()
            event(f"exit {code}")

            assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_VERIFY_FAIL)
            if code == EXIT_OK:
                assert err == ""
            else:
                assert err.endswith("\n") and "Traceback" not in err
                # One message, after one line per crashed verify check.
                *located, _ = err.splitlines()
                assert code == EXIT_VERIFY_FAIL or not located
                assert all(RAISED_LINE.fullmatch(line) for line in located), located
            fmt = values.get("output_format", "").strip().lower()
            if fmt not in ("csv", "json"):
                fmt = "json" if subcommand == "verify" else "csv"
            if code == EXIT_CONFIG_ERROR or path is not None:
                assert out == ""
            if code != EXIT_CONFIG_ERROR:
                if path is None:
                    _check_product(out, fmt)
                else:
                    with open(path, encoding="utf-8") as fh:
                        _check_product(fh.read(), fmt)
