"""Command-line behavior: configs, output format, exit codes, determinism."""

import math
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dressedbath import (
    NumericalFailure,
    OhmicSystemSpec,
    amplitudes,
    cli,
    solve_finite_spectrum,
)
from dressedbath.cli import main

ROOT = Path(__file__).resolve().parents[1]
WEAK_BETA = repr(1.0 / 137)


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_rows(text):
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return np.array([[float(x) for x in row] for row in rows])


def spec_from_metadata(text):
    # the exact resolved spec, from the "# spec:" header line
    line = next(line for line in text.splitlines() if line.startswith("# spec: "))
    fields = dict(item.split("=", 1) for item in line[len("# spec: "):].split())
    return OhmicSystemSpec(
        bar_omega=float(fields["bar_omega"]), g=float(fields["g"]),
        cavity_L=float(fields["cavity_L"]), n_modes=int(fields["n_modes"]),
        light_speed=float(fields["light_speed"]), hbar=float(fields["hbar"]))


def summaries(text):
    prefix = "# summary: "
    entries = [line[len(prefix):] for line in text.splitlines()
               if line.startswith(prefix)]
    parsed = {}
    for entry in entries:
        if "=" in entry:
            key, _, value = entry.partition("=")
            parsed[key] = float(value)
    return entries, parsed


def test_spectrum_finite_n_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--bar-omega", "1.0", "--g", "0.3",
                         "--cavity-L", "1.0", "--n-modes", "8",
                         "--light-speed", "1.0")
    assert rc == 0
    rows = data_rows(out)
    assert rows.shape == (9, 3)
    assert np.array_equal(rows[:, 0], np.arange(9))
    modes = solve_finite_spectrum(
        OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, n_modes=8,
                        light_speed=1.0))
    # 17 significant digits means the columns round-trip exactly
    assert np.array_equal(rows[:, 1], modes.frequencies)
    assert np.array_equal(rows[:, 2], modes.weights)


def test_spectrum_cavity_route_lowest_mode(capsys):
    base = ("spectrum", "--route", "cavity", "--bar-omega", "1.0",
            "--beta", WEAK_BETA, "--delta", "0.005", "--light-speed", "1.0",
            "--k-max", "100")
    rc, out, _ = run_cli(capsys, *base, "--eq11-variant", "paper")
    assert rc == 0
    rows = data_rows(out)
    assert rows.shape[0] == 101
    assert rows[0, 1] == pytest.approx(1.005618100726249, rel=1e-12)
    for variant in ((), ("--eq11-variant", "rederived")):
        rc, out, _ = run_cli(capsys, *base, *variant)
        assert rc == 0
        assert data_rows(out)[0, 1] == pytest.approx(0.997307665638838, rel=1e-12, abs=0.0)
        assert "# eq11_variant: rederived" in out


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_spectrum_small_l_route(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--route", "small-l",
                         "--bar-omega", "1.0", "--beta", WEAK_BETA,
                         "--delta", "0.005", "--light-speed", "1.0",
                         "--k-max", "50")
    assert rc == 0
    rows = data_rows(out)
    assert rows.shape[0] == 51
    assert rows[0, 1] == pytest.approx(0.992237351139662, rel=1e-12, abs=0.0)
    assert np.all(np.diff(rows[:, 1]) > 0.0)


def test_warning_is_one_stderr_line(capsys):
    # no source path or line number of cli.py, like the error lines
    rc, out, err = run_cli(capsys, "spectrum", "--route", "small-l",
                           "--bar-omega", "1", "--light-speed", "1",
                           "--beta", "0.0073", "--delta", "0.005", "--k-max", "50")
    assert rc == 0
    assert data_rows(out).shape[0] == 51
    assert err == ("warning: delta = 0.005 is not small against the validity "
                   "factor f = 0.00738419; small-cavity formulas degrade here\n")


def test_missing_required_key(capsys):
    rc, _, err = run_cli(capsys, "spectrum", "--g", "0.3", "--cavity-L", "1.0")
    assert rc == 1
    assert "bar_omega" in err


def test_mutually_exclusive_keys(capsys):
    rc, _, err = run_cli(capsys, "spectrum", "--bar-omega", "1.0",
                         "--g", "0.3", "--beta", "0.3", "--cavity-L", "1.0")
    assert rc == 1
    assert "exactly one" in err
    rc, _, err = run_cli(capsys, "spectrum", "--bar-omega", "1.0", "--g", "0.3")
    assert rc == 1
    assert "cavity_L" in err and "delta" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample run\n"
        "bar_omega = 1.0\n"
        "beta = 0.3   # dimensionless coupling\n"
        "cavity_L = 1.0\n"
        "samples = 4\n"
        "t_max = 2.0\n",
        encoding="utf-8",
    )
    rc, out, _ = run_cli(capsys, "decay", "--config", str(cfg))
    assert rc == 0
    assert spec_from_metadata(out).g == 0.3
    assert data_rows(out).shape[0] == 4
    rc, out, _ = run_cli(capsys, "decay", "--config", str(cfg), "--beta", "0.5")
    assert rc == 0
    assert spec_from_metadata(out).g == 0.5


def test_config_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bar_omega 1.0\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "decay", "--config", str(bad))
    assert rc == 1 and "expected key=value" in err
    bad.write_text("flux=3\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, "decay", "--config", str(bad))
    assert rc == 1 and "unknown config key" in err
    rc, _, err = run_cli(capsys, "decay", "--config", str(tmp_path / "none.cfg"))
    assert rc == 1 and "cannot read config" in err


@pytest.mark.parametrize("args, message", [
    (("--bar-omega", "-1", "--beta", "0.3", "--delta", "0.05"),
     "bar_omega must be positive and finite, got -1.0"),
    (("--beta", "0.3", "--delta", "-0.05"), "delta must be positive and finite, got -0.05"),
    (("--beta", "0.3", "--cavity-L", "0"), "cavity_L must be positive and finite, got 0.0"),
    (("--beta", "-0.3", "--delta", "0.05"), "beta must be positive and finite, got -0.3"),
    (("--g", "0", "--delta", "0.05"), "g must be positive and finite, got 0.0"),
], ids=["bar_omega", "delta", "cavity_L", "beta", "g"])
def test_build_spec_names_the_key_at_fault(capsys, args, message):
    # the key given is refused, not the g or cavity_L derived from it
    if "--bar-omega" not in args:
        args = ("--bar-omega", "1", *args)
    rc, out, err = run_cli(capsys, "decay", *args, "--light-speed", "1")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_build_spec_refuses_an_underflowing_coupling(capsys):
    rc, out, err = run_cli(capsys, "decay", "--bar-omega", "1e-200", "--beta", "1e-200",
                           "--delta", "0.05")
    assert (rc, out) == (1, "")
    assert err == ("error: g = beta * bar_omega underflows to 0 "
                   "(beta = 1e-200, bar_omega = 1e-200)\n")


@pytest.mark.parametrize("where", ["missing/x.csv", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, where):
    target = tmp_path / where
    rc, out, err = run_cli(capsys, "spectrum", "--bar-omega", "1", "--g", "0.3",
                           "--cavity-L", "1", "--out", str(target))
    assert (rc, out) == (1, "")
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith(f"error: cannot write {target}: ")


def test_decay_probe_row(capsys):
    t_max = repr(2.0 / (math.pi / 137))
    rc, out, _ = run_cli(capsys, "decay", "--bar-omega", "1.0",
                         "--beta", WEAK_BETA, "--cavity-L", "1.0",
                         "--light-speed", "1.0", "--t-max", t_max,
                         "--samples", "3")
    assert rc == 0
    rows = data_rows(out)
    assert rows[0, 3] == pytest.approx(1.0, abs=1e-6)
    assert rows[1, 0] == pytest.approx(137.0 / math.pi, rel=1e-15, abs=0.0)
    assert rows[1, 3] == pytest.approx(0.3679279601897298, rel=1e-12, abs=0.0)
    assert abs(rows[1, 3] - 0.368) <= 0.01
    # the prob column is exactly re**2 + im**2 of the emitted values
    assert np.array_equal(rows[:, 3], rows[:, 1] ** 2 + rows[:, 2] ** 2)


def test_decay_methods_agree(capsys):
    base = ("decay", "--bar-omega", "1.0", "--beta", "0.3", "--cavity-L", "1.0",
            "--light-speed", "1.0", "--t-max", "20.0", "--samples", "21")
    _, out_closed, _ = run_cli(capsys, *base, "--method", "closed")
    _, out_quad, _ = run_cli(capsys, *base, "--method", "quadrature")
    diff = np.abs(data_rows(out_closed)[:, 3] - data_rows(out_quad)[:, 3])
    assert diff.max() < 1e-5


def test_brownian_vacuum_and_launch_point(capsys):
    base = ("brownian", "--bar-omega", "1.0", "--beta", "0.3",
            "--cavity-L", "1.0", "--light-speed", "1.0", "--t-max", "10.0",
            "--samples", "50")
    rc, out, _ = run_cli(capsys, *base, "--n-bar", "0.0")
    assert rc == 0
    assert np.all(data_rows(out)[:, 1] == 0.0)
    rc, out, _ = run_cli(capsys, *base, "--n-bar", "2.5", "--theta", "0.0")
    assert data_rows(out)[0, 1] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_brownian_weak_zero_crossings(capsys):
    rc, out, _ = run_cli(capsys, "brownian", "--bar-omega", "1.0",
                         "--beta", WEAK_BETA, "--cavity-L", "1.0",
                         "--light-speed", "1.0", "--theta", "0.0",
                         "--t-max", "20.0", "--samples", "2001")
    assert rc == 0
    rows = data_rows(out)
    t, q = rows[:, 0], rows[:, 1]
    flips = np.flatnonzero(np.sign(q[:-1]) * np.sign(q[1:]) < 0)
    kappa = math.sqrt(1.0 - (math.pi / (2 * 137.0)) ** 2)
    expected = (0.5 * math.pi + np.arange(flips.size) * math.pi) / kappa
    crossings = t[flips] - q[flips] * (t[flips + 1] - t[flips]) / (
        q[flips + 1] - q[flips])
    assert flips.size == 6
    assert np.max(np.abs(crossings / expected - 1.0)) < 0.01


def test_cavity_weak_summary(capsys):
    rc, out, _ = run_cli(capsys, "cavity", "--bar-omega", "1.0",
                         "--beta", WEAK_BETA, "--delta", "0.005",
                         "--light-speed", "1.0", "--eq11-variant", "rederived")
    assert rc == 0
    _, parsed = summaries(out)
    assert parsed["analytic_min_bound"] == pytest.approx(0.9742038791690163,
                                                         rel=1e-12, abs=0.0)
    assert parsed["grid_min"] >= parsed["analytic_min_bound"]
    assert data_rows(out).shape == (200, 2)


@pytest.mark.parametrize("beta, delta, low, high", [
    # the resonance near k ~ 2*delta/(pi*beta) ~ 1.9e5 lies past k_max = 2000,
    # so nearly all the weight is missing; the curve alone read
    # grid_min = 3.6e-23 with no sign of it
    ("1e-6", "0.3", 0.99, 1.0),
    ("0.3", "0.05", 0.0, 1e-3),
])
def test_cavity_prints_its_missing_weight(capsys, beta, delta, low, high):
    rc, out, _ = run_cli(capsys, "cavity", "--bar-omega", "1", "--light-speed", "1",
                         "--beta", beta, "--delta", delta)
    assert rc == 0
    entries, parsed = summaries(out)
    assert entries[1].startswith("missing_weight=")
    assert low < parsed["missing_weight"] < high


def test_cavity_strong_summary(capsys):
    base = ("cavity", "--bar-omega", "2e10", "--beta", "10.0",
            "--regime", "strong")
    rc, out, _ = run_cli(capsys, *base, "--delta", "0.1")
    assert rc == 0
    entries, parsed = summaries(out)
    assert parsed["delta_max"] == pytest.approx(0.3723715130668097, abs=1e-12)
    assert parsed["L_max"] == pytest.approx(0.00111634171191478, rel=1e-10, abs=0.0)
    assert abs(parsed["L_max"] - 1.2e-3) / 1.2e-3 < 0.20
    assert not any("unphysical" in entry for entry in entries)
    rc, out, _ = run_cli(capsys, *base, "--delta", "0.5")
    assert rc == 0
    entries, parsed = summaries(out)
    assert "unphysical: exceeds delta_max" in entries
    assert parsed["analytic_min_bound"] < 0.0


def test_validate_command(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "validate")
    assert rc == 0
    assert "result: all checks passed" in out
    assert "published variant" in out
    target = tmp_path / "report.txt"
    rc, silent, _ = run_cli(capsys, "validate", "--out", str(target))
    assert rc == 0 and silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_validate_notes_the_small_cavity_form_only_below_pi_delta_one(capsys):
    rc, out, _ = run_cli(capsys, "validate", "--beta", "0.3", "--delta", "0.3")
    assert rc == 0 and "first-order small-cavity form gives" in out
    # past it the note names the form's refusal, once dropped without a word
    rc, out, _ = run_cli(capsys, "validate", "--beta", "0.3", "--delta", "0.5")
    assert rc == 0 and "first-order small-cavity form gives" not in out
    assert ("first-order small-cavity form refused (InputError: first-order cavity "
            "weights need pi*delta < 1 (got pi*delta = 1.5708))\n") in out


@pytest.mark.parametrize("args", [
    ("--beta", "30"),
    ("--beta", "100"),
    ("--beta", "3", "--delta", "0.05", "--n-modes", "120"),
])
def test_validate_passes_at_strong_coupling(capsys, args):
    # the dense route's lowest mode stays within the 1e-10 spectrum gate
    # where a rounded omega0**2 would leave an error above it
    rc, out, _ = run_cli(capsys, "validate", *args)
    assert rc == 0 and "result: all checks passed" in out


def test_validate_refuses_large_baths_at_once(capsys):
    # the dense Jacobi check would take seconds at n_modes = 401; the cap
    # must refuse before any of that work starts
    start = time.perf_counter()
    rc, _, err = run_cli(capsys, "validate", "--n-modes", "401")
    assert time.perf_counter() - start < 2.0
    assert rc == 1 and "capped at n_modes = 400" in err


def test_metadata_round_trip(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--bar-omega", "2.7",
                         "--g", "0.123456789012345", "--cavity-L", "3.21",
                         "--n-modes", "4", "--light-speed", "2.5",
                         "--hbar", "0.9")
    assert rc == 0
    assert spec_from_metadata(out) == OhmicSystemSpec(
        bar_omega=2.7, g=0.123456789012345, cavity_L=3.21, n_modes=4,
        light_speed=2.5, hbar=0.9)


def _decay_bytes(tmp_path, monkeypatch, capsys, threads):
    if threads is None:
        monkeypatch.delenv("DRESSED_THREADS", raising=False)
    else:
        monkeypatch.setenv("DRESSED_THREADS", threads)
    target = tmp_path / f"run{threads}.csv"
    rc, _, _ = run_cli(capsys, "decay", "--bar-omega", "1.0",
                       "--beta", "3.0", "--cavity-L", "1.0",
                       "--light-speed", "1.0", "--t-max", "20.0",
                       "--samples", "300", "--out", str(target))
    assert rc == 0
    return target.read_bytes()


def test_thread_count_does_not_change_output(tmp_path, monkeypatch, capsys):
    # DRESSED_THREADS is not read: any thread count gives the bytes of a
    # run without the variable
    files = {threads: _decay_bytes(tmp_path, monkeypatch, capsys, threads)
             for threads in (None, "1", "8")}
    assert files[None] == files["1"] == files["8"]


def test_invalid_thread_env(tmp_path, monkeypatch, capsys):
    # a non-integer DRESSED_THREADS is ignored, not rejected: exit 0 and
    # the bytes of a run without the variable
    assert (_decay_bytes(tmp_path, monkeypatch, capsys, "many")
            == _decay_bytes(tmp_path, monkeypatch, capsys, None))


@pytest.mark.parametrize("args", [
    ("cavity", "--bar-omega", "1.0", "--beta", WEAK_BETA, "--delta", "0.005",
     "--light-speed", "1.0", "--k-max", "2000", "--samples", "200"),
    ("decay", "--bar-omega", "1.0", "--beta", "0.3", "--cavity-L", "1.0",
     "--light-speed", "1.0", "--n-modes", "200", "--method", "discrete"),
    ("decay", "--bar-omega", "1.0", "--beta", "8.5", "--delta", "0.05",
     "--light-speed", "1.0", "--t-max", "60", "--method", "quadrature"),
    ("brownian", "--bar-omega", "1.0", "--beta", "0.3", "--cavity-L", "1.0",
     "--light-speed", "1.0", "--method", "quadrature"),
    ("validate",),
], ids=["cavity-weak", "decay-discrete", "decay-quadrature", "brownian-quadrature",
        "validate"])
def test_mode_sum_worker_count_does_not_change_output(monkeypatch, capsys, args):
    # mode sums on one and on two workers; continuum quadrature starts none
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(amplitudes, "_worker_count", lambda *args, n=workers: n)
        rc, out, _ = run_cli(capsys, *args)
        assert rc == 0
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]


def test_flag_and_file_values_share_one_coercion(tmp_path, capsys):
    base = ("decay", "--bar-omega", "1.0", "--cavity-L", "1.0",
            "--samples", "3")
    rc, _, err = run_cli(capsys, *base, "--beta", "abc")
    assert rc == 1 and "key beta expects a number, got 'abc'" in err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("beta = abc\n", encoding="utf-8")
    rc, _, err = run_cli(capsys, *base, "--config", str(cfg))
    assert rc == 1 and "key beta expects a number, got 'abc'" in err
    rc, _, err = run_cli(capsys, *base, "--beta", "0.3", "--samples", "3.5")
    assert rc == 1 and "key samples expects an integer, got '3.5'" in err
    rc, _, err = run_cli(capsys, *base, "--beta", "0.3", "--t-max", "inf")
    assert rc == 1 and "key t_max must be finite" in err


def test_extreme_frequency_scales(capsys):
    # at bar_omega = 1e-170, bar_omega**2 underflows to 0, which once made
    # every spec critical, and 1e160 was refused though no route squares
    # it.  beta = 1e200 is past the cap on g/bar_omega, delta_omega
    # overflows at bar_omega = 1e307 and the default t_max = 50/bar_omega
    # at 1e-307: each is refused on one line
    unit = ("--delta", "0.05", "--light-speed", "1")
    for bar_omega in ("1e-170", "1e160"):
        rc, out, _ = run_cli(capsys, "decay", "--bar-omega", bar_omega, "--beta", "0.3", *unit)
        assert rc == 0 and "regime=underdamped" in out
    for bar_omega, beta in (("1", "1e200"), ("1e307", "0.3"), ("1e-307", "0.3")):
        rc, out, err = run_cli(capsys, "decay", "--bar-omega", bar_omega, "--beta", beta, *unit)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert "t_max" in err


EXTREME_BETAS = ("1e-300", "1e-200", "1e-160", "1e-100", "1e-80", "1e-20",
                 "1e5", "1e50", "1e100", "1e150")
EXTREME_COMMANDS = (
    "spectrum --route finite-n --n-modes 20", "spectrum --route cavity --k-max 100",
    "decay --method discrete --n-modes 50", "decay --method quadrature",
    "decay --method closed", "brownian --method closed", "cavity --k-max 200",
    "validate --n-modes 20",
)


@pytest.mark.parametrize("beta", EXTREME_BETAS)
def test_extreme_couplings_fail_on_one_line(capsys, beta):
    # where a route's own arithmetic leaves double precision, it says so
    # on one line naming beta and delta: no traceback, and no blame on
    # weights the caller never gave
    for command in EXTREME_COMMANDS:
        rc, _, err = run_cli(capsys, *command.split(), "--beta", beta,
                             "--bar-omega", "1", "--delta", "0.05", "--light-speed", "1")
        assert "Traceback" not in err and "weights must be positive" not in err, command
        assert rc in ((0, 3) if command.startswith("validate") else (0, 1, 2)), command
        if rc in (1, 2):
            last = err.splitlines()[-1]
            assert last.startswith(("error: ", "numerical failure: ")), command


def test_spectral_commands_at_extreme_frequency_scales(capsys):
    # the cavity weights and the dense oracle once squared bar_omega, so
    # validate failed and cavity raised "weights must be positive" at
    # bar_omega = 1e80 and 1e-170
    unit = ("--beta", "0.3", "--delta", "0.05", "--light-speed", "1")
    rc, out, _ = run_cli(capsys, "validate", "--bar-omega", "1e80", *unit)
    assert rc == 0 and "result: all checks passed" in out
    grid_min = []
    for bar_omega, t_max in (("1", "20"), ("1e-170", "2e171")):
        rc, out, _ = run_cli(capsys, "cavity", "--bar-omega", bar_omega,
                             "--t-max", t_max, *unit)
        assert rc == 0
        grid_min.append(summaries(out)[1]["grid_min"])
    assert abs(grid_min[1] - grid_min[0]) <= 1e-14


def test_oversized_quadrature_grid_fails_fast(capsys):
    # t_max = 3e5 at beta 8.5 once needed 1e7 half-period panels a time and
    # was refused; on one panel set per spec it runs.  The one grid guard
    # left counts (time, panel) pairs: 10**6 samples at beta 1e-90, about
    # 600 panels each, are refused on one line before any is summed
    unit = ("--bar-omega", "1.0", "--delta", "0.05", "--light-speed", "1.0")
    rc, out, _ = run_cli(capsys, "decay", "--method", "quadrature", "--beta", "8.5",
                         "--t-max", "300000", *unit)
    assert rc == 0 and out.count("\n") == 207
    for command in ("decay", "brownian"):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, command, "--method", "quadrature", "--beta", "1e-90",
                               "--samples", "1000000", *unit)
        assert time.perf_counter() - start < 0.5
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "(time, panel) pairs" in err


def test_oversized_spectrum_and_mode_sum_fail_fast(capsys):
    # a finite bath of 10**6 + 1 modes (over the solver's cap), a
    # 2001-mode x 70000-time cavity curve (1.4e8 phase terms, over 2**27),
    # and k_max or samples over their caps of 10**6 all exit 1 at once
    small = ("--beta", "0.3", "--delta", "0.005")
    for args, message in (
        (("spectrum", "--n-modes", "1000001", "--beta", "0.3", "--delta", "0.7"),
         "capped at n_modes = 1000000"),
        (("cavity", "--k-max", "2000", "--samples", "70000", "--beta", "0.1",
          "--delta", "0.05"), "2**27 phase terms"),
        (("spectrum", "--route", "cavity", "--k-max", "1000001", *small),
         "k_max is capped at 1000000, got 1000001"),
        (("spectrum", "--route", "small-l", "--k-max", "1000001", *small),
         "k_max is capped at 1000000, got 1000001"),
        (("decay", "--samples", "1000001", *small),
         "samples is capped at 1000000, got 1000001"),
    ):
        start = time.perf_counter()
        rc, out, err = run_cli(capsys, *args, "--bar-omega", "1.0",
                               "--light-speed", "1.0")
        assert time.perf_counter() - start < 0.5
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_small_l_weights_need_pi_delta_below_one(capsys):
    # at delta = 1 the strong weights would sum to 1.32, with ladder mode 1
    # (0.637) above w0 (0.389)
    for regime in ("weak", "strong"):
        rc, out, err = run_cli(capsys, "spectrum", "--route", "small-l",
                               "--regime", regime, "--bar-omega", "1",
                               "--beta", "10", "--delta", "1",
                               "--light-speed", "1", "--k-max", "5")
        assert rc == 1 and out == ""
        assert err.endswith("error: first-order cavity weights need pi*delta < 1 "
                            "(got pi*delta = 3.14159)\n")


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def explode(args):
        raise NumericalFailure("synthetic blowup")

    monkeypatch.setattr(cli, "cmd_decay", explode)
    rc, _, err = run_cli(capsys, "decay", "--bar-omega", "1.0", "--beta", "0.3",
                         "--cavity-L", "1.0")
    assert rc == 2
    assert err.startswith("numerical failure:")


def test_resonant_ladder_mode_is_a_numerical_failure(capsys):
    # L = 2*pi*c/bar_omega puts ladder mode 1 exactly on the particle
    # frequency, where the first-order weights have a pole
    rc, out, err = run_cli(capsys, "spectrum", "--route", "small-l",
                           "--bar-omega", "1", "--g", "1e-3",
                           "--cavity-L", "6.283185307178957",
                           "--light-speed", "1", "--k-max", "3")
    assert rc == 2 and out == ""
    warning, failure = err.splitlines()
    assert warning.startswith("warning: ")
    assert failure == ("numerical failure: a ladder mode sits exactly on the "
                       "particle resonance")


def _readme_commands():
    # the fenced block under README's "Command line" heading
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("dressedbath ")]
    assert commands, "README lists no dressedbath commands"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_commands_run(tmp_path, capsys, argv):
    target = tmp_path / "out.txt"
    rc, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (rc, out, err) == (0, "", "")
    assert target.read_text(encoding="utf-8")


def test_grid_guards(capsys):
    rc, _, err = run_cli(capsys, "decay", "--bar-omega", "1.0", "--beta", "0.3",
                         "--cavity-L", "1.0", "--samples", "1")
    assert rc == 1 and "samples" in err
    rc, _, err = run_cli(capsys, "decay", "--bar-omega", "1.0", "--beta", "0.3",
                         "--cavity-L", "1.0", "--t-max", "-3.0")
    assert rc == 1 and "t_max" in err


def test_argparse_surface(capsys):
    rc, out, _ = run_cli(capsys, "--version")
    assert rc == 0
    assert "dressedbath" in out
    assert main([]) == 1
    capsys.readouterr()
    assert main(["decay", "--bogus"]) == 1
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dressedbath", "--version"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("dressedbath ")
