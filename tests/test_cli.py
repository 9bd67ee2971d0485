"""End-to-end tests of the command-line interface, run in process (and once
in a subprocess, for a closed stdout)."""

import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import amfrk.cli as cli
import amfrk.harness as harness
import amfrk.stability as stability
from amfrk import FactorSolveError, NonFiniteStateError
from amfrk.cli import main


# ---------------------------------------------------------------------------
# verify


def test_verify_reports_ok(capsys):
    assert main(["verify", "--scheme", "amf2"]) == 0
    out = capsys.readouterr().out
    assert "ok: worst residual" in out
    assert "reconstruction[0]" in out
    assert "eigenvalue_pair[1]" in out
    assert "output_row[1]" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("scheme", ["AMF2", " Amf2 "])
def test_scheme_option_ignores_case_and_blanks(capsys, scheme):
    """--scheme accepts what a config file's scheme= and scheme_sweeps do."""
    assert main(["verify", "--scheme", scheme]) == 0
    assert "ok: worst residual" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--scheme", "amf9"],
    ["integrate", "--dim", "2", "--beta", "0", "--n", "8", "--scheme", "amf9"],
    ["converge", "--dim", "2", "--beta", "0", "--grids", "8", "--scheme", "amf1,amf9"],
], ids=lambda argv: argv[0])
def test_unknown_scheme_is_usage_error_naming_the_ids(capsys, argv):
    """Every command reads --scheme by the tableau's one rule; --help shows
    the ids where one scheme is taken, ID[,ID...] for a converge list."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert ("argument --scheme: unknown scheme 'amf9'; expected one of "
            "('amf1', 'amf2', 'amf3')\n") in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert ("ID[,ID...]" if argv[0] == "converge" else "{amf1,amf2,amf3}") in help_text


def test_verify_flags_bad_residuals(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_scheme_conditions",
                        lambda scheme, tab: {"fake_condition": 1.0})
    assert main(["verify", "--scheme", "amf1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL: worst residual" in out


# ---------------------------------------------------------------------------
# converge


def test_converge_markdown_matches_reference_digits(capsys):
    rc = main([
        "converge", "--dim", "2", "--beta", "0", "--scheme", "amf1",
        "--grids", "24,48", "--format", "md",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "| 1/24 | 3.74 (2.03) |" in out
    assert "| 1/48 | 4.35 |" in out


def test_converge_csv_default_format(capsys):
    rc = main([
        "converge", "--dim", "2", "--beta", "1", "--scheme", "amf2",
        "--grids", "8",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "h,tau,eps2,delta2,p"
    assert len(out.splitlines()) == 2


def test_converge_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "table.csv"
    rc = main([
        "converge", "--dim", "2", "--beta", "0", "--scheme", "amf1",
        "--grids", "8,16", "--out", str(path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("study,message", [
    (["--grids", "24,48", "--eps", "0"], "diffusion coefficients must be positive"),
    (["--grids", "24,48", "--beta", "nan"], "beta must be finite"),
    (["--grids", "8", "--eps", "1e308"], "non-finite stencil weight"),
], ids=["eps-zero", "beta-nan", "eps-overflow"])
def test_refused_study_leaves_an_existing_out_untouched(tmp_path, capsys, monkeypatch, study,
                                                       message):
    # check_study refuses what build_problem refuses before --out is opened
    # (which would truncate the file)
    def never(*args, **kwargs):
        raise AssertionError("a level was integrated")
    monkeypatch.setattr(harness, "integrate", never)
    path = tmp_path / "existing.csv"
    path.write_bytes(b"h,tau,eps2,delta2,p\n1,2,3,4,5\n")
    argv = ["converge", "--dim", "2", "--beta", "0", "--scheme", "amf2", *study]
    assert main([*argv, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert path.read_bytes() == b"h,tau,eps2,delta2,p\n1,2,3,4,5\n"


def test_converge_config_file_seeds_options(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# study setup\n"
        "dim = 2\n"
        "beta = 0\n"
        "scheme = amf1\n"
        "grids = 8\n",
        encoding="utf-8",
    )
    rc = main(["converge", "--config", str(cfg)])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_converge_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("dim=2\nbeta=0\nscheme=amf1\ngrids=8\n", encoding="utf-8")
    rc = main(["converge", "--config", str(cfg), "--grids", "8,16"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_converge_several_schemes_csv_adds_a_scheme_column(capsys):
    argv = ["converge", "--dim", "2", "--beta", "1", "--grids", "12,24"]
    want = ["scheme,h,tau,eps2,delta2,p"]
    for sid in ("amf3", "amf1"):
        assert main(argv + ["--scheme", sid]) == 0
        want += [f"{sid},{line}" for line in capsys.readouterr().out.splitlines()[1:]]
    assert main(argv + ["--scheme", "amf3,amf1"]) == 0
    assert capsys.readouterr().out.splitlines() == want


def test_converge_several_schemes_markdown_is_the_side_by_side_table(capsys):
    rc = main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf1,amf2,amf3",
               "--grids", "24,48,96", "--format", "md"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "| h | amf1 | amf2 | amf3 |\n"
        "| --- | --- | --- | --- |\n"
        "| 1/24 | 3.74 (2.03) | 4.94 (2.85) | 4.90 (2.55) |\n"
        "| 1/48 | 4.35 (2.01) | 5.79 (2.88) | 5.67 (2.42) |\n"
        "| 1/96 | 4.96 | 6.66 | 6.40 |\n"
    )


@pytest.mark.parametrize("schemes,message", [
    ("amf1,amf9", "unknown scheme 'amf9'"),
    ("amf1,", "unknown scheme ''"),
    ("amf2,AMF2", "listed twice"),
])
def test_converge_bad_scheme_list_is_usage_error(capsys, schemes, message):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--dim", "2", "--beta", "0", "--scheme", schemes,
              "--grids", "8"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_converge_missing_options_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--dim", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --beta, --scheme, --grids" in err


def test_converge_invalid_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf9",
              "--grids", "8"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf1",
              "--grids", "8", "--bogus", "1"])
    assert exc.value.code == 2


def test_converge_indivisible_grid_exits_two(capsys):
    rc = main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf2",
               "--grids", "7"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("grids", ["0", "8,1"])
def test_converge_grid_of_fewer_than_two_cells_exits_two(grids, capsys):
    rc = main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf1",
               "--grids", grids])
    assert rc == 2
    message = f"n_cells must be a whole number >= 2, got n_cells={grids.split(',')[-1]}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_grid_of_one_cell_gives_one_message_in_converge_and_integrate(monkeypatch, capsys):
    # GridSpec states the N >= 2 rule once, for a study and a single run alike
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    argv = ["--dim", "2", "--beta", "0", "--scheme", "amf1"]
    assert main(["converge", *argv, "--grids", "8,1"]) == 2
    converge = capsys.readouterr()
    assert main(["integrate", *argv, "--n", "1"]) == 2
    assert capsys.readouterr() == converge
    assert converge.err == "error: n_cells must be a whole number >= 2, got n_cells=1\n"


@pytest.mark.parametrize("tau_ratio", [[], ["--tau-ratio", "1"]], ids=["q", "tau-ratio"])
def test_integrate_on_zero_cells_exits_two_with_the_grid_message(monkeypatch, capsys, tau_ratio):
    # GridSpec refuses n before tau = ratio / n is formed, which divided by zero
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    argv = ["integrate", "--dim", "2", "--beta", "0", "--scheme", "amf1", "--n", "0"]
    assert main(argv + tau_ratio) == 2
    want = "error: n_cells must be a whole number >= 2, got n_cells=0\n"
    assert capsys.readouterr() == ("", want)


@pytest.mark.parametrize("grids", ["24,24", "48,24"])
def test_converge_grids_that_do_not_increase_strictly_exit_two(monkeypatch, grids, capsys):
    monkeypatch.setattr(harness, "integrate", None)  # nothing may run
    rc = main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf2",
               "--grids", grids])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"grids must increase strictly, got [{grids.replace(',', ', ')}]" in captured.err


def test_converge_without_a_grid_size_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf1", "--grids", ","])
    assert exc.value.code == 2
    assert "no grid size" in capsys.readouterr().err


def test_converge_checks_every_study_before_the_first_integration(monkeypatch, capsys):
    # N = 193 suits amf1 but not amf2: the run exits 2 before amf1 integrates
    def never(*args, **kwargs):
        raise AssertionError("a study ran before every study was checked")
    monkeypatch.setattr(cli, "run_convergence", never)
    monkeypatch.setattr(harness, "integrate", never)
    rc = main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf1,amf2",
               "--grids", "192,193"])
    assert rc == 2
    assert ("t_end = 1.0 is not an integer number of steps of tau = 0.0103626943005"
            in capsys.readouterr().err)


def test_converge_runs_a_grid_q_does_not_divide_when_t_end_is_whole_steps(capsys):
    # amf2 on N = 5 reaches t = 2 in five steps of 0.4: step_count alone
    # decides, as it does for integrate
    rc = main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf2", "--grids", "5",
               "--t-end", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "h,tau,eps2,delta2,p"
    assert len(lines) == 2 and lines[1].startswith("0.2,0.4,")


def test_converge_end_time_a_later_level_cannot_reach_exits_two(monkeypatch, capsys):
    # N = 64 reaches t = 0.25 in 16 amf1 steps, N = 90 in no whole number of
    # them: the run exits 2 and prints no table before N = 64 integrates
    def never(*args, **kwargs):
        raise AssertionError("a level ran before every level was checked")
    monkeypatch.setattr(harness, "integrate", never)
    rc = main(["converge", "--dim", "3", "--beta", "0", "--scheme", "amf1",
               "--grids", "64,90", "--t-end", "0.25"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_end = 0.25 is not an integer number of steps of tau = 0.0111" in captured.err


def test_converge_numerical_failure_exits_one(monkeypatch, capsys):
    def boom(cfg):
        raise FactorSolveError("vanishing pivot in direction 0")
    monkeypatch.setattr(cli, "run_convergence", boom)
    rc = main(["converge", "--dim", "2", "--beta", "0", "--scheme", "amf1",
               "--grids", "8"])
    assert rc == 1
    assert "numerical failure:" in capsys.readouterr().err


def test_bad_config_line_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("dim 2\n", encoding="utf-8")
    rc = main(["converge", "--config", str(cfg)])
    assert rc == 2
    assert "expected key=value" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path):
    rc = main(["converge", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_misspelled_config_key_is_usage_error(tmp_path, capsys):
    cfg = _config(tmp_path, "dim=2\nbeta=0\nscheme=amf1\nn=8\ntend=0\n")
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--config", cfg])
    assert exc.value.code == 2
    assert "--tend" in capsys.readouterr().err


@pytest.mark.parametrize("use_config", [True, False])
def test_flag_prefix_is_usage_error(tmp_path, capsys, use_config):
    # t is a prefix of --t-end only, yet it is not read as that flag
    argv = ["converge", "--dim", "2", "--beta", "1", "--scheme", "amf2", "--grids", "8,16"]
    extra = ["--config", _config(tmp_path, "t=0\n")] if use_config else ["--t=0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + extra)
    assert exc.value.code == 2
    assert "unrecognized arguments: --t=0" in capsys.readouterr().err


def test_nested_config_key_exits_two(tmp_path, capsys):
    cfg = _config(tmp_path, "dim=2\nbeta=0\nscheme=amf1\nn=8\nconfig=/nonexistent\n")
    assert main(["integrate", "--config", cfg]) == 2
    assert "cannot name another" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,text,flag", [
    (["converge"], "dim=4\nbeta=0\nscheme=amf1\ngrids=8\n", "--dim"),
    (["stability"], "scheme=amf1\nd=2\ntheta=0\nradii=x\n", "--radii"),
])
def test_config_values_pass_their_flags_checks(tmp_path, capsys, cmd, text, flag):
    with pytest.raises(SystemExit) as exc:
        main(cmd + ["--config", _config(tmp_path, text)])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_config_negative_value_runs(tmp_path, capsys):
    cfg = _config(tmp_path, "dim=2\nbeta=-1e-3\nscheme=amf1\nn=8\nt_end=0\n")
    assert main(["integrate", "--config", cfg]) == 0
    assert capsys.readouterr().out == "t=0 n=8 scheme=amf1 eps2=0 delta2=inf\n"


@pytest.mark.parametrize("key", ["tau_ratio", "tau-ratio"])
def test_config_key_takes_underscore_or_dash(tmp_path, capsys, key):
    cfg = _config(tmp_path, f"dim=2\nbeta=0\nscheme=amf1\nn=8\n{key}=4\n")
    assert main(["integrate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert main(["integrate", "--dim", "2", "--beta", "0", "--scheme", "amf1",
                 "--n", "8", "--tau-ratio", "4"]) == 0
    assert capsys.readouterr().out == out
    assert main(["integrate", "--config", cfg, "--tau-ratio", "1"]) == 0
    assert capsys.readouterr().out != out


@pytest.mark.parametrize("before", [True, False])
def test_flag_beats_config_on_either_side(tmp_path, capsys, before):
    cfg = ["--config", _config(tmp_path, "dim=2\nbeta=0\nscheme=amf1\nn=8\n")]
    flag = ["--n", "16"]
    argv = ["integrate"] + (flag + cfg if before else cfg + flag)
    assert main(argv) == 0
    assert " n=16 " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# integrate


def test_integrate_prints_error_summary(capsys):
    rc = main(["integrate", "--dim", "2", "--beta", "0", "--scheme", "amf1",
               "--n", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("t=1 n=8 scheme=amf1 eps2=")
    assert "delta2=" in out


def test_integrate_exact_at_zero_end_time(capsys):
    rc = main(["integrate", "--dim", "2", "--beta", "0", "--scheme", "amf1",
               "--n", "8", "--t-end", "0"])
    assert rc == 0
    assert capsys.readouterr().out == "t=0 n=8 scheme=amf1 eps2=0 delta2=inf\n"


def test_converge_exact_at_zero_end_time(capsys):
    rc = main(["converge", "--dim", "2", "--beta", "1", "--scheme", "amf2",
               "--grids", "8,16", "--t-end", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["0.125,0.25,0,inf,", "0.0625,0.125,0,inf,"]


def test_integrate_negative_end_time_exits_two(capsys):
    rc = main(["integrate", "--dim", "2", "--beta", "0", "--scheme", "amf1",
               "--n", "8", "--t-end", "-1"])
    assert rc == 2
    assert "end time" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--eps", "nan"), ("--eps", "inf"),
                                        ("--beta", "nan")])
def test_integrate_non_finite_parameter_exits_two(flag, value, capsys):
    rc = main(["integrate", "--dim", "2", "--beta", "0", "--scheme", "amf1",
               "--n", "8", flag, value])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["integrate", "--n", "8", "--t-end", "1e308"],
    ["integrate", "--n", "8", "--tau-ratio", "1e-320"],
    ["converge", "--grids", "8", "--t-end", "1e308"],
    ["integrate", "--n", "8", "--eps", "1e308"],
], ids=["integrate-t-end", "integrate-tau-ratio", "converge-t-end", "integrate-eps"])
def test_finite_parameter_that_overflows_exits_two(argv, capsys):
    """A step count t_end/tau past the float range, or a diffusion weight
    eps/h^2 past it, is a usage error, raised before any step is taken."""
    rc = main(argv[:1] + ["--dim", "2", "--beta", "0", "--scheme", "amf1"] + argv[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("stencil weight" if "--eps" in argv else "not a finite step count") in err


def test_integrate_non_finite_state_exits_one(monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise NonFiniteStateError(3, 0.375)

    monkeypatch.setattr(harness, "integrate", blow_up)
    rc = main(["integrate", "--dim", "2", "--beta", "0", "--scheme", "amf1", "--n", "8"])
    assert rc == 1
    assert "not finite after step 3" in capsys.readouterr().err


def test_integrate_honors_step_ratio_and_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "dim=2\nbeta=1\nscheme=amf3\nn=9\ntau-ratio=3\nt-end=1.0\n",
        encoding="utf-8",
    )
    rc = main(["integrate", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme=amf3" in out and "n=9" in out


# ---------------------------------------------------------------------------
# stability


def test_stability_scan_summary(capsys):
    rc = main(["stability", "--scheme", "amf2", "--d", "2",
               "--theta", "1.5707963267948966", "--radii", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme=amf2 d=2" in out
    assert "samples=324 excluded=0" in out
    assert "max |R| = " in out
    assert out.count("rays(") == 9


def test_stability_csv_export(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    rc = main(["stability", "--scheme", "amf1", "--d", "2", "--theta", "0",
               "--radii", "5", "--csv", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"wrote 25 samples to {path}" in out
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "z1_re,z1_im,z2_re,z2_im,abs_r"
    assert len(lines) == 26


@pytest.mark.parametrize("command", [
    ["converge", "--dim", "2", "--beta", "0", "--scheme", "amf2", "--grids", "96,192,384",
     "--out"],
    ["stability", "--scheme", "amf2", "--d", "3", "--theta", "0.5", "--csv"],
], ids=["converge", "stability"])
def test_output_path_in_a_missing_directory_exits_two_before_any_work(
        tmp_path, capsys, monkeypatch, command):
    # the output file is opened before the first study or the scan, as a
    # shell redirect would be: no integration, no sample and no summary
    def never(*args, **kwargs):
        raise AssertionError("work ran before the output file was opened")
    monkeypatch.setattr(harness, "integrate", never)
    monkeypatch.setattr(cli, "wedge_stability_scan", never)
    assert main(command + [str(tmp_path / "missing" / "out.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err


@pytest.mark.parametrize("scan,message", [
    (["--d", "2", "--theta", "3.0"], "wedge half-angle"),
    (["--d", "11", "--theta", "0.5"], "3**11 * 40 equal-radius tuples"),
    (["--d", "1", "--theta", "0", "--radii", "1000000000"], "1**1 * 1000000000 equal-radius"),
], ids=["theta", "subsample-cap", "radii-cap"])
def test_refused_scan_leaves_an_existing_csv_untouched(tmp_path, capsys, monkeypatch, scan,
                                                       message):
    # check_scan refuses before np.logspace makes the radii and before --csv
    # is opened (which would truncate the file)
    def never(*args, **kwargs):
        raise AssertionError("the scan's radii or samples were made")
    monkeypatch.setattr(cli, "wedge_stability_scan", never)
    monkeypatch.setattr(np, "logspace", never)
    path = tmp_path / "existing.csv"
    path.write_bytes(b"z1_re,z1_im,abs_r\n1,2,3\n")
    assert main(["stability", "--scheme", "amf1", *scan, "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert path.read_bytes() == b"z1_re,z1_im,abs_r\n1,2,3\n"


def test_stability_rejects_nonpositive_radii_count(tmp_path, capsys, monkeypatch):
    # check_scan's own rule, before the radii are made or --csv is opened
    def never(*args, **kwargs):
        raise AssertionError("the scan's radii or samples were made")
    monkeypatch.setattr(cli, "wedge_stability_scan", never)
    monkeypatch.setattr(np, "logspace", never)
    path = tmp_path / "existing.csv"
    path.write_bytes(b"z1_re,z1_im,abs_r\n1,2,3\n")
    assert main(["stability", "--scheme", "amf1", "--d", "2", "--theta", "0",
                 "--radii", "0", "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_radii must be a whole number >= 1, got n_radii=0\n"
    assert path.read_bytes() == b"z1_re,z1_im,abs_r\n1,2,3\n"


@pytest.mark.parametrize("radii", ["4000001", "1000000000"])
def test_stability_radii_past_the_cap_exit_two_before_allocating(capsys, monkeypatch, radii):
    # every scan refuses more than _CAP radii (n_rays**d >= 1), so the count
    # is refused before np.logspace makes them: 10^9 radii would be 7.45 GiB
    monkeypatch.setattr(np, "logspace", None)
    monkeypatch.setattr(stability, "_Evaluator", None)
    rc = main(["stability", "--scheme", "amf1", "--d", "1", "--theta", "0",
               "--radii", radii])
    assert rc == 2
    assert (f"1 directions of {radii} radii would subsample 1**1 * {radii} equal-radius "
            f"tuples, past {stability._CAP}") in capsys.readouterr().err


def test_stability_invalid_angle_exits_two(capsys):
    rc = main(["stability", "--scheme", "amf1", "--d", "2", "--theta", "3.0",
               "--radii", "4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_stability_non_finite_angle_exits_two(capsys):
    rc = main(["stability", "--scheme", "amf2", "--d", "3", "--theta", "nan"])
    assert rc == 2
    assert "wedge half-angle" in capsys.readouterr().err


def test_stability_subsample_past_the_cap_exits_two(capsys, monkeypatch):
    # 3**11 * 40 equal-radius tuples: refused before any sample is evaluated
    monkeypatch.setattr(stability, "_Evaluator", None)
    rc = main(["stability", "--scheme", "amf1", "--d", "11", "--theta", "0.5"])
    assert rc == 2
    assert "equal-radius tuples" in capsys.readouterr().err


@pytest.mark.parametrize("d,theta", [("65", "0"), ("100000000", "0.5")])
def test_stability_past_the_direction_limit_exits_two(capsys, monkeypatch, d, theta):
    # refused at once, before any power of d or any sample
    monkeypatch.setattr(stability, "_Evaluator", None)
    rc = main(["stability", "--scheme", "amf1", "--d", d, "--theta", theta])
    assert rc == 2
    assert "d must be at most 63" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["integrate", "--dim", "2", "--beta", "1", "--scheme", "amf1", "--n", "64"],
    ["converge", "--dim", "2", "--beta", "0", "--scheme", "amf2", "--grids", "24,64"],
], ids=["integrate", "converge"])
def test_grid_too_large_for_the_memory_exits_two(capsys, monkeypatch, command):
    # refused before the problem is built: 2-D N=64 under 100 kB of memory
    monkeypatch.setattr(harness, "_physical_memory", lambda: 100_000)
    monkeypatch.setattr(harness, "build_problem", None)
    assert main(command) == 2
    assert "N = 64: the run's states need" in capsys.readouterr().err


def test_oversized_grid_is_refused_under_an_address_space_limit():
    # 2-D N=10^8 in a child limited to 2 GiB: a missing check fails fast
    # (out of memory, exit 1) instead of filling the machine's memory
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from amfrk.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code, "integrate", "--dim", "2",
         "--beta", "1", "--scheme", "amf1", "--n", "100000000"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "MiB of physical memory" in proc.stderr


def test_closed_stdout_ends_quietly_with_141():
    # the reader takes one line and closes the pipe; the CSV rows (about 1 MB)
    # still to come are not a usage error and print nothing to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "amfrk.cli", "stability",
         "--scheme", "amf2", "--d", "2", "--theta", "0.7", "--csv", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
