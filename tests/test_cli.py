"""Command-line behavior: exit codes, artifacts, provenance, error paths.

Everything runs in-process through main(argv), so the suite stays fast
and coverage sees the dispatch code; only the import probe, which needs a
fresh interpreter, starts a subprocess.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gaugelab
from gaugelab import series, stochastic
from gaugelab.catalog import entry_names, get_entry, run_entry, standard_entries
from gaugelab.cells import TaggedDivision
from gaugelab.cli import EXIT_CODES, main, main_cli
from gaugelab.divisions import RefinementSchedule
from gaugelab.results import Status


def read_lines(path):
    return path.read_text().splitlines()


class TestExitCodes:
    def test_table_covers_every_status(self):
        assert set(EXIT_CODES) == set(Status)

    def test_converged_entry_exits_zero(self, capsys):
        assert main(["integrate", "--method", "gauge", "--catalog", "h1", "--no-timestamp"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_diverged_entry_exits_two(self, capsys):
        assert main(["integrate", "--method", "gauge", "--catalog", "h2", "--no-timestamp"]) == 2
        assert "diverged" in capsys.readouterr().out

    def test_oscillating_entry_exits_two(self, capsys):
        assert main(["integrate", "--method", "rs", "--catalog", "step_dD", "--no-timestamp"]) == 2
        assert "oscillating" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--method", "bogus"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrate", "--method", "rs", "--catalog", "step_dD", "--rule", "tag"],
            ["brownian", "qv", "--t", "1", "--level", "4", "--paths", "10", "--seed", "1",
             "--f", "x"],
            ["series", "--n", "0"],
        ],
        ids=["integrate", "brownian", "series"],
    )
    def test_refused_flag_prints_the_commands_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli([*argv, "--no-timestamp"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        command = argv[0]
        assert out == ""
        assert err.startswith(f"usage: gaugelab {command} [-h]")
        assert err.splitlines()[-1].startswith(f"gaugelab {command}: error:")


def test_inconclusive_short_schedule(capsys, tmp_path):
    # sin(s) over one octave of refinement cannot satisfy the three-level
    # stability window, so the run ends without a verdict
    rc = main(
        [
            "integrate",
            "--method", "rs",
            "--expr", "sin(s)",
            "--levels", "4:5",
            "--no-timestamp",
        ]
    )
    assert rc == 3
    assert "inconclusive" in capsys.readouterr().out


def test_agreement_needs_a_window_of_levels(capsys):
    # sin(40 s) at tol 0.2: the grid families agree within tolerance at
    # the first level, and rs says converged only once the stable window
    # of three more levels has closed
    rc = main(["integrate", "--method", "rs", "--expr", "sin(40*s)",
               "--tol", "0.2", "--no-timestamp"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out[1:5]] == [["4", "16"], ["5", "32"], ["6", "64"],
                                                       ["7", "128"]]
    assert out[5] == "status: converged"
    assert abs(float(out[6].split()[1]) - (1 - math.cos(40)) / 40) <= 0.2


def test_gauge_s_dD_is_not_converged(capsys):
    # s dD over ]0, 1] has no gauge integral: divisions with only rational
    # cuts sum to 0, while the split rows' irrational cuts tend to 1
    rc = main(["integrate", "--method", "gauge", "--expr", "s", "--dI", "dD",
               "--levels", "4:9", "--no-timestamp"])
    assert rc == 3
    assert "status: inconclusive" in capsys.readouterr().out.splitlines()


def test_rs_aliasing_witness_converges_at_its_value(capsys):
    # sin^2(32 pi s) sin^2(16 pi s - pi theta) vanishes at every level-4 tag
    # of the four rs rows; one level's agreement would say converged 0
    expr = "sin(100.53096491487338*s)^2*sin(50.26548245743669*s-0.6506451422842866)^2"
    rc = main(["integrate", "--method", "rs", "--expr", expr, "--no-timestamp"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and "status: converged" in out
    estimate = next(float(line.split()[1]) for line in out if line.startswith("estimate:"))
    assert abs(estimate - 0.25) <= 1e-9


class TestIntegrateDispatch:
    def test_expr_rs_smooth(self, capsys):
        rc = main(
            [
                "integrate",
                "--method", "rs",
                "--expr", "s^2",
                "--tol", "1e-4",
                "--no-timestamp",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.333" in out

    def test_expr_gauge_with_rule(self, capsys):
        rc = main(
            [
                "integrate",
                "--method", "gauge",
                "--expr", "s*s",
                "--rule", "mid",
                "--tol", "1e-4",
                "--no-timestamp",
            ]
        )
        assert rc == 0

    def test_exact_rational_bounds(self, capsys):
        # c * (D(1) - D(0)) telescopes to zero for rational bounds, and the
        # run must say so exactly, without drifting through floats
        rc = main(
            [
                "integrate",
                "--method", "rs",
                "--expr", "1/2",
                "--dI", "dD",
                "--a", "0",
                "--b", "1",
                "--no-timestamp",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimate: 0" in out
        assert "converged" in out

    def test_exact_estimate_prints_as_a_fraction(self, capsys):
        rc = main(["integrate", "--method", "rs", "--catalog", "step_dD",
                   "--levels", "1:2", "--no-timestamp"])
        assert rc == EXIT_CODES[Status.INCONCLUSIVE]
        assert "estimate: 1/2\n" in capsys.readouterr().out

    def test_exact_integrand_fault_names_the_exact_cell(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", "--expr", "1/s", "--dI", "dD",
                      "--no-timestamp"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "tag=Fraction(0, 1) on ]Fraction(0, 1), Fraction(1, 16)]" in err
        assert "(1 / s)" in err

    def test_darboux_needs_monotone_expr(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "darboux", "--expr", "sin(s)*s"])
        assert exc.value.code == 1
        assert "rs or gauge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--expr", "s+2/s", "--a=-3", "--b=-1"],
             "cannot certify monotonicity of (s + (2 / s)) on [-3.0, -1.0]"),
            (["--expr", "s*0*sqrt(s-5)"], "cannot evaluate sqrt((s - 5))"),
            (["--expr", "s*exp(exp(s))", "--a", "7", "--b", "8"],
             "cannot evaluate exp(exp(s))"),
            (["--expr", "(s+1e200)^2*s"], "cannot evaluate ((s + 1e200) ^ 2)"),
            (["--expr", "abs(exp(s)-exp(709.3))", "--a", "709", "--b", "709.7"],
             "cannot certify monotonicity of abs((exp(s) - exp(709.3)))"),
        ],
    )
    def test_darboux_refusal_or_fault_is_one_error_line(self, argv, message, capsys):
        # s+2/s peaks at -sqrt(2) and abs(exp(s)-exp(709.3)) dips to 0 at
        # 709.3; the other three fault when evaluated
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "darboux", *argv, "--no-timestamp"])
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"gaugelab: error: {message}")

    @pytest.mark.parametrize("method", ["rs", "gauge", "darboux"])
    @pytest.mark.parametrize("bounds, shown", [
        (["--a", "0", "--b", "inf"], "a=0.0, b=inf"),
        (["--a=-inf", "--b", "1"], "a=-inf, b=1.0"),
        (["--a", "-inf", "--b", "1"], "a=-inf, b=1.0"),
        (["--a", "-1e308", "--b", "1e308"], "a=-1e+308, b=1e+308"),
        (["--a", "1e308", "--b", "1.7e308"], "a=1e+308, b=1.7e+308"),
    ])
    def test_infinite_bound_is_one_error_line(self, method, bounds, shown, capsys):
        # an end at or beyond +-2**1023 is refused before any division, with
        # no numpy warning and no gauge search on the way
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", method, "--expr", "s", *bounds, "--no-timestamp"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"gaugelab: error: float domain needs |a|, |b| < 2**1023, got {shown}\n"

    @pytest.mark.parametrize("spaced, joined", [
        (["--a", "-1e-3", "--b", "1"], ["--a=-1e-3", "--b=1"]),
        (["--a", "-3", "--b", "-2.5E+0"], ["--a=-3", "--b=-2.5E+0"]),
    ])
    def test_negative_bounds_in_exponent_form_are_values(self, spaced, joined, capsys):
        runs = []
        for bounds in (spaced, joined):
            rc = main(["integrate", "--method", "rs", "--expr", "s", *bounds,
                       "--levels", "1:3", "--no-timestamp"])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][1].err == "" and "estimate:" in runs[0][1].out

    @pytest.mark.parametrize("argv, message", [
        (["-x", "1"], "unrecognized arguments: -x 1"),
        (["--a", "-x"], "argument --a: expected one argument"),
    ])
    def test_unknown_dash_option_still_refused(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", "--expr", "s", *argv])
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)

    def test_darboux_certifies_a_rising_quotient_over_negatives(self, capsys):
        rc = main(["integrate", "--method", "darboux", "--expr", "s-2/s",
                   "--a=-3", "--b=-1", "--tol", "1e-4", "--no-timestamp"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err == ""
        estimate = float(out.split("estimate: ")[1].split()[0])
        assert estimate == pytest.approx(2 * math.log(3) - 4, abs=1e-4)

    def test_darboux_monotone_expr(self, capsys):
        rc = main(
            [
                "integrate",
                "--method", "darboux",
                "--expr", "s^2",
                "--tol", "1e-4",
                "--no-timestamp",
            ]
        )
        assert rc == 0

    def test_catalog_method_must_match(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--catalog", "h1", "--method", "rs"])
        assert exc.value.code == 1
        assert "gauge" in capsys.readouterr().err

    def test_catalog_excludes_expr(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "gauge", "--catalog", "h1", "--expr", "s"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--method", "gauge", "--catalog", "h3", "--rule", "left"],
            ["--method", "rs", "--catalog", "const_dD", "--rule", "tag"],
            ["--method", "darboux", "--expr", "s", "--rule", "mid"],
        ],
        ids=["catalog", "catalog-tag", "darboux"],
    )
    def test_rule_refused_where_nothing_reads_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", *argv, "--no-timestamp"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].startswith("gaugelab integrate: error:")
        assert "--rule" in err.splitlines()[-1]

    def test_expr_rule_defaults_to_tag(self, capsys):
        argv = ["integrate", "--method", "rs", "--expr", "s^2", "--levels", "4:8",
                "--tol", "1e-2", "--no-timestamp"]
        main(argv)
        default = capsys.readouterr().out
        main(argv + ["--rule", "tag"])
        assert capsys.readouterr().out == default

    def test_lebesgue_refuses_expr(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "lebesgue", "--expr", "s"])
        assert exc.value.code == 1
        assert "identity_dist" in capsys.readouterr().err

    def test_lebesgue_refusal_names_every_distribution_entry(self, capsys):
        with pytest.raises(SystemExit):
            main_cli(["integrate", "--method", "lebesgue", "--expr", "s"])
        err = capsys.readouterr().err
        assert "use --catalog (identity_dist, square_dist, twomass_step)" in err
        named = err.split("use --catalog (")[1].split(")")[0].split(", ")
        assert named == [e.name for e in standard_entries() if e.kind == "distribution"]

    def test_lebesgue_catalog_entry(self, capsys):
        rc = main(["integrate", "--method", "lebesgue", "--catalog",
                   "twomass_step", "--no-timestamp"])
        assert rc == 0
        assert "4" in capsys.readouterr().out

    def test_integrand_fault_reported(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(
                [
                    "integrate",
                    "--method", "rs",
                    "--expr", "1/s",
                    "--no-timestamp",
                ]
            )
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "gaugelab: error:" in err
        assert "tag=0.0 on ]0.0, 0.0625]" in err  # the first rational-left cell

    def test_tol_override(self, capsys):
        rc = main(
            [
                "integrate",
                "--method", "rs",
                "--expr", "s",
                "--tol", "0.1",
                "--no-timestamp",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_refused(self, tol, capsys):
        # --tol inf once printed `status: converged` for s on [0, 1] at 0.484
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", "--expr", "s", "--tol", tol])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert "status:" not in out
        assert err.startswith("gaugelab: error:") and "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--expr", "s", "--levels", "4:40"],
            ["--catalog", "s_dsquare", "--levels", "4:27"],
        ],
        ids=["levels", "catalog-levels"],
    )
    def test_level_above_max_refused_before_any_division(self, argv, capsys, monkeypatch):
        def no_divisions(*args, **kwargs):
            raise AssertionError("built a division for an oversize schedule")

        monkeypatch.setattr(TaggedDivision, "__init__", no_divisions)
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", *argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "gaugelab: error:" in err and "26" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--levels", "4", "argument --levels: wants START:STOP (e.g. 4:18), got '4'"),
        ("--levels", "4:x", "argument --levels: wants START:STOP (e.g. 4:18), got '4:x'"),
        ("--levels", "4.5:6", "argument --levels: wants START:STOP (e.g. 4:18), got '4.5:6'"),
        ("--tol", "abc", "argument --tol: invalid float value: 'abc'"),
    ])
    def test_malformed_flag_is_a_usage_error(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", "--expr", "s", flag, value])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: gaugelab integrate [-h]")
        assert err.splitlines()[-1] == f"gaugelab integrate: error: {message}"

    def test_levels_past_max_level_is_the_schedules_refusal(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", "--expr", "s", "--levels", "4:40"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "gaugelab: error: schedule stop 40 exceeds MAX_LEVEL=26\n")

    def test_dg_integrates_against_a_distribution_entry(self, capsys):
        # s d(s^2) over ]0, 1] is 2/3
        rc = main(["integrate", "--method", "rs", "--expr", "s", "--dI", "dg:square_dist",
                   "--tol", "1e-4", "--no-timestamp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status: converged" in out
        estimate = float(out.split("estimate: ")[1].split()[0])
        assert estimate == pytest.approx(2 / 3, abs=1e-4)

    @pytest.mark.parametrize("dI, message", [
        ("dg:h1", "--dI dg: wants a distribution entry; 'h1' is integrand"),
        ("dg:nope", "unknown catalog entry 'nope'"),
        ("foo", "--dI must be length, dD, or dg:<name>, got 'foo'"),
    ])
    def test_dI_refusal_is_one_error_line(self, dI, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", "--expr", "s", "--dI", dI])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert out == "" and len(errors) == 1 and message in errors[0]
        assert err.startswith("usage: gaugelab integrate")
        assert errors[0].startswith("gaugelab integrate: error:")

    @pytest.mark.parametrize("argv, listed", [
        (["--expr", "s", "--dI", "dg:nope"],
         "distribution entries: identity_dist, square_dist, twomass_step"),
        (["--catalog", "nope"], "catalog entries: h1, h2,"),
    ], ids=["dg", "catalog"])
    def test_unknown_entry_is_a_usage_error(self, argv, listed, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", *argv])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        *usage, error = err.splitlines()
        assert out == "" and usage[0].startswith("usage: gaugelab integrate")
        assert "error:" not in "".join(usage)
        assert error.startswith("gaugelab integrate: error: unknown catalog entry 'nope'; ")
        assert listed in error


class TestArtifacts:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "integrate",
                "--method", "gauge",
                "--catalog", "h3",
                "--out", str(out),
                "--no-timestamp",
            ]
        )
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "# gaugelab 0.1.0"
        assert lines[1].startswith("# command: ")
        header = lines[2].split(",")
        assert header[0] == "level" and "estimate" in header and "status" in header
        rows = [ln.split(",") for ln in lines[3:]]
        est_col = header.index("estimate")
        # estimate and status belong to the run, not its intermediate levels
        for row in rows[:-1]:
            assert row[est_col] == ""
        final = rows[-1]
        assert final[header.index("status")] == "converged"
        assert abs(float(final[est_col]) - 1.0 / 3.0) < 1e-6

    def test_csv_floats_roundtrip(self, tmp_path):
        out = tmp_path / "run.csv"
        main(
            [
                "integrate",
                "--method", "rs",
                "--expr", "s^2",
                "--tol", "1e-4",
                "--out", str(out),
                "--no-timestamp",
            ]
        )
        lines = read_lines(out)
        header = lines[2].split(",")
        for ln in lines[3:]:
            for name, field in zip(header, ln.split(",")):
                if field and name not in ("status",):
                    float(field)  # %.17g must parse back

    def test_json_shape(self, tmp_path):
        out = tmp_path / "run.json"
        rc = main(
            [
                "integrate",
                "--method", "gauge",
                "--catalog", "h3",
                "--format", "json",
                "--out", str(out),
                "--no-timestamp",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "converged"
        assert abs(doc["estimate"] - 1.0 / 3.0) < 1e-6
        assert doc["metadata"]["version"] == "0.1.0"
        assert "generated" not in doc["metadata"]
        assert isinstance(doc["trace"], list)
        assert doc["trace"][0]["level"] == 4

    def test_timestamp_present_by_default(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["integrate", "--method", "gauge", "--catalog", "h1", "--out", str(out)])
        lines = read_lines(out)
        assert any(ln.startswith("# generated: ") for ln in lines[:4])

    @pytest.mark.parametrize("value", ["6", "", "soon"])
    def test_environment_leaves_the_artifact_unchanged(self, value, tmp_path, monkeypatch, capsys):
        # The command line is the run's whole input, so the same recorded
        # command writes the same bytes whatever the environment holds.
        argv = ["integrate", "--method", "rs", "--expr", "s^2", "--tol", "1e-4",
                "--out", "run.csv", "--no-timestamp"]

        def artifact(run_dir):
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            assert main(argv) == 0
            return (run_dir / "run.csv").read_bytes()

        plain = artifact(tmp_path / "plain")
        monkeypatch.setenv("GAUGELAB_MAX_LEVEL", value)
        assert artifact(tmp_path / "env") == plain
        assert b",converged\n" in plain

    def test_no_timestamp_byte_identity(self, tmp_path):
        argv = [
            "integrate",
            "--method", "gauge",
            "--catalog", "h3",
            "--out", str(tmp_path / "a.csv"),
            "--no-timestamp",
        ]
        main(argv)
        first = (tmp_path / "a.csv").read_bytes()
        main(argv)
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_exact_sums_not_mangled(self, tmp_path):
        out = tmp_path / "exact.csv"
        main(
            [
                "integrate",
                "--method", "rs",
                "--catalog", "step_dD",
                "--out", str(out),
                "--no-timestamp",
            ]
        )
        lines = read_lines(out)
        header = lines[2].split(",")
        final = lines[-1].split(",")
        # integer sums written as integers, not 17-digit floats
        assert final[header.index("sum_min")] == "0"
        assert final[header.index("sum_max")] == "1"
        assert final[header.index("status")] == "oscillating"

    @pytest.mark.parametrize(
        "source, estimate",
        [
            (["--catalog", "step_dD"], "1/2"),
            (["--expr", "s", "--dI", "dD"], "13/32 + 1/32*sqrt(2)"),
        ],
    )
    def test_json_writes_exact_sums_as_printed(self, source, estimate, tmp_path, capsys):
        out = tmp_path / "exact.json"
        rc = main(["integrate", "--method", "rs", *source, "--levels", "1:3",
                   "--format", "json", "--out", str(out), "--no-timestamp"])
        assert rc == 3
        assert f"estimate: {estimate}\n" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["estimate"] == estimate
        assert not isinstance(doc["trace"][-1]["sum_max"], float)

    @pytest.mark.parametrize(
        "source, error_bound",
        [
            (["--catalog", "step_dD"], 1),
            (["--expr", "s", "--dI", "dD"], "13/16 + 1/16*sqrt(2)"),
        ],
    )
    def test_json_writes_exact_error_bound(self, source, error_bound, tmp_path):
        # the bound is the exact spread of the last level, not its float
        out = tmp_path / "exact.json"
        main(["integrate", "--method", "rs", *source, "--levels", "1:3",
              "--format", "json", "--out", str(out), "--no-timestamp"])
        doc = json.loads(out.read_text())
        assert doc["error_bound"] == error_bound
        assert type(doc["error_bound"]) is type(error_bound)


OVERRIDE_GOLDEN = Path(__file__).parent / "data" / "cli_override_golden.json"


@pytest.mark.parametrize("argv, shown", [
    (["integrate", "--method", "rs", "--expr", "s", "--levels", "2:4"], "status: inconclusive"),
    (["brownian", "qv", "--t", "1", "--level", "2", "--paths", "2", "--seed", "1"], "qv: mean="),
    (["series", "--n", "3"], "3,"),
], ids=["integrate", "brownian", "series"])
def test_unwritable_out_is_one_error_line(argv, shown, tmp_path, capsys):
    out = tmp_path / "missing" / "run.csv"
    with pytest.raises(SystemExit) as exc:
        main_cli([*argv, "--out", str(out), "--no-timestamp"])
    assert exc.value.code == 1
    printed, err = capsys.readouterr()
    assert shown in printed
    assert err == f"gaugelab: error: cannot write {str(out)!r}: No such file or directory\n"
    assert not out.parent.exists()


class TestCatalogOverride:
    """--tol/--levels on a catalog entry: one run per method, artifacts
    byte-identical to the recorded ones and to run_entry under the same
    overridden controller."""

    # method: (entry, flags, controller fields the flags override)
    CASES = {
        "gauge": ("inv_sqrt", ["--levels", "6:12"],
                  {"schedule": RefinementSchedule(6, 12)}),
        "darboux": ("step_darboux", ["--tol", "1e-3"], {"tolerance_abs": 1e-3}),
        "lebesgue": ("twomass_step", ["--levels", "4:8"],
                     {"schedule": RefinementSchedule(4, 8)}),
        "rs": ("step_dD", ["--levels", "1:5"], {"schedule": RefinementSchedule(1, 5)}),
    }

    def run(self, method, monkeypatch, tmp_path):
        name, flags, _ = self.CASES[method]
        monkeypatch.chdir(tmp_path)
        argv = ["integrate", "--method", method, "--catalog", name, *flags,
                "--out", "run.csv", "--no-timestamp"]
        return main(argv), (tmp_path / "run.csv").read_text()

    @pytest.mark.parametrize("method", sorted(CASES))
    def test_artifact_bytes(self, method, monkeypatch, tmp_path, capsys):
        golden = json.loads(OVERRIDE_GOLDEN.read_text())[method]
        rc, artifact = self.run(method, monkeypatch, tmp_path)
        assert rc == golden["exit"]
        assert artifact == golden["artifact"]

    @pytest.mark.parametrize("method", sorted(CASES))
    def test_artifact_matches_run_entry(self, method, monkeypatch, tmp_path, capsys):
        name, _, fields = self.CASES[method]
        entry = get_entry(name)
        result = run_entry(entry, replace(entry.controller, **fields))
        rc, artifact = self.run(method, monkeypatch, tmp_path)
        assert rc == EXIT_CODES[result.status]
        fmt = lambda x: "%.17g" % x if isinstance(x, float) else str(x)
        rows = [line.split(",") for line in artifact.splitlines()[3:]]
        assert [row[:4] for row in rows] == [
            [str(r.level), str(r.n), fmt(r.sum_min), fmt(r.sum_max)]
            for r in result.trace
        ]
        estimate = "" if result.estimate is None else fmt(result.estimate)
        assert rows[-1][4:] == [estimate, str(result.status)]


class TestBrownian:
    COMMON = ["--t", "1.0", "--level", "6", "--paths", "8", "--seed", "9"]

    def test_qv(self, capsys, tmp_path):
        out = tmp_path / "qv.csv"
        rc = main(
            ["brownian", "qv", *self.COMMON, "--out", str(out), "--no-timestamp"]
        )
        assert rc == 0
        lines = read_lines(out)
        assert any("bit_generator=philox" in ln for ln in lines)
        assert any("gaussian_transform=inverse-cdf" in ln for ln in lines)
        header = lines[3].split(",")
        row = lines[4].split(",")
        stats = dict(zip(header, row))
        assert float(stats["mean"]) == pytest.approx(1.0, abs=0.5)
        assert int(stats["paths"]) == 8

    def test_seed_determinism(self, capsys):
        main(["brownian", "qv", *self.COMMON, "--no-timestamp"])
        first = capsys.readouterr().out
        main(["brownian", "qv", *self.COMMON, "--no-timestamp"])
        assert capsys.readouterr().out == first

    def test_ito_and_strat_disagree(self, capsys):
        # same seed, same paths: the two conventions differ by t/2 for f(x)=x
        main(["brownian", "ito", *self.COMMON, "--f", "x", "--no-timestamp"])
        ito_out = capsys.readouterr().out
        main(["brownian", "strat", *self.COMMON, "--f", "x", "--no-timestamp"])
        strat_out = capsys.readouterr().out
        ito_mean = float(ito_out.split("mean=")[1].split()[0])
        strat_mean = float(strat_out.split("mean=")[1].split()[0])
        assert strat_mean - ito_mean == pytest.approx(0.5, abs=0.3)

    def test_increment(self, capsys):
        rc = main(["brownian", "increment", *self.COMMON, "--no-timestamp"])
        assert rc == 0

    def test_variation(self, capsys):
        rc = main(["brownian", "variation", *self.COMMON, "--no-timestamp"])
        assert rc == 0

    def test_ito_residual_needs_derivatives(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", "ito-residual", *self.COMMON])
        assert exc.value.code == 1
        assert "--f" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sub,given,refused",
        [
            ("qv", ["--f", "x"], "--f"),
            ("increment", ["--df", "1"], "--df"),
            ("variation", ["--d2f", "0"], "--d2f"),
            ("ito", ["--f", "x", "--df", "1"], "--df"),
            ("strat", ["--f", "x", "--d2f", "0"], "--d2f"),
        ],
    )
    def test_point_function_flags_a_sub_ignores_are_refused(
        self, sub, given, refused, capsys, monkeypatch
    ):
        def no_draws(*args):
            raise AssertionError("drew normals for a refused command")

        monkeypatch.setattr(stochastic, "_standard_normals", no_draws)
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", sub, *self.COMMON, *given])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == f"gaugelab brownian: error: {sub} does not read {refused}"

    def test_ito_residual_square(self, capsys):
        rc = main(
            [
                "brownian", "ito-residual",
                *self.COMMON,
                "--f", "x^2",
                "--df", "2*x",
                "--d2f", "2",
                "--no-timestamp",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert float(out.split("mean=")[1].split()[0]) == pytest.approx(0.0, abs=1e-10)

    def test_seed_range_checked(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", "qv", "--t", "1", "--level", "4",
                      "--paths", "2", "--seed", "-1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("f", ["1/x", "x^0.5"])
    def test_domain_fault_on_path_values_exits_one(self, f, capsys):
        # level-6 paths from seed 9 start at x(0) = 0 and go negative
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", "ito", *self.COMMON, "--f", f])
        assert exc.value.code == 1
        assert "gaugelab: error:" in capsys.readouterr().err

    def test_infinite_horizon_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", "qv", "--t", "inf", "--level", "4",
                      "--paths", "2", "--seed", "1"])
        assert exc.value.code == 1
        assert "gaugelab: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "t, level, error",
        [
            # each path's QV overflows to inf
            ("1e308", "4", "estimator value is inf on path id=9"),
            # finite QVs whose variance overflows
            ("1e300", "0", "variance over 10 paths is inf"),
        ],
        ids=["1e308-4", "1e300-0"],
    )
    def test_non_finite_result_exits_one_without_artifact(
        self, t, level, error, tmp_path, capsys
    ):
        out = tmp_path / "qv.json"
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", "qv", "--t", t, "--level", level, "--paths", "10",
                      "--seed", "1", "--format", "json", "--out", str(out)])
        assert exc.value.code == 1
        # no numpy warning, and the same error whatever the warnings filter
        assert capsys.readouterr().err == f"gaugelab: error: {error}\n"
        assert not out.exists()

    def test_level_above_max_exits_one_before_any_draw(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew normals for an oversize level")

        monkeypatch.setattr(stochastic, "_standard_normals", no_draws)
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", "qv", "--t", "1", "--level", "40",
                      "--paths", "2", "--seed", "1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "gaugelab: error:" in err and "MAX_LEVEL" in err

    def test_paths_above_max_exits_one_before_any_draw(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew normals for an oversize path count")

        monkeypatch.setattr(stochastic, "_standard_normals", no_draws)
        with pytest.raises(SystemExit) as exc:
            main_cli(["brownian", "qv", "--t", "1", "--level", "4",
                      "--paths", str(stochastic.MAX_PATHS + 1), "--seed", "1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "gaugelab: error:" in err and "MAX_PATHS" in err


def test_cli_import_does_not_load_scipy():
    # scipy.special is imported on the first Brownian draw, not at start-up
    src = str(Path(gaugelab.__file__).resolve().parents[1])
    probe = "import sys, gaugelab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_closed_stdout_ends_the_run_quietly():
    # `gaugelab ... | head -1`: a reader that has gone away is no error
    # worth a traceback; the run exits 1 and says nothing
    src = str(Path(gaugelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader from the start: the first write fails
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gaugelab", "integrate", "--method", "rs", "--expr", "s^2",
             "--levels", "4:6"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


class TestSeries:
    def test_row(self, capsys):
        rc = main(["series", "--n", "2", "--no-timestamp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-0.5" in out and "0.5" in out

    def test_artifact(self, tmp_path):
        out = tmp_path / "series.csv"
        main(["series", "--n", "10", "--out", str(out), "--no-timestamp"])
        lines = read_lines(out)
        header = lines[2].split(",")
        assert "partial" in header

    def test_n_above_the_deepest_grid_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(series, "MAX_LEVEL", 3)
        assert main(["series", "--n", "8", "--no-timestamp"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main_cli(["series", "--n", "9", "--no-timestamp"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gaugelab: error:") and "MAX_LEVEL" in err


class TestHelp:
    def test_grammar_in_integrate_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--help"])
        assert exc.value.code == 0
        assert "expr" in capsys.readouterr().out

    def test_integrate_help_lists_every_catalog_entry(self, capsys):
        # the list is filled in only when help is formatted
        with pytest.raises(SystemExit):
            main(["integrate", "--help"])
        out = capsys.readouterr().out
        block = out.split("\n  --catalog CATALOG", 1)[1].split("\n  --a A", 1)[0]
        assert " ".join(block.split()) == f"named entry: {', '.join(entry_names())}"

    def test_main_cli_wraps_library_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_cli(["integrate", "--method", "rs", "--expr", "s +"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("gaugelab: error:")
        assert "byte" in err
