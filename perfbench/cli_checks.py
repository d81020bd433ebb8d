"""Checks of the CSV and report files that the dressedbath command writes.

Each output is parsed and put through the checks of ``checks.py``.  Two
commands print a curve without the modes behind it (``decay --method
discrete`` and ``cavity``); for those the modes are solved again through
the library, outside any timing, and the modes themselves must pass the
spectrum checks before the curve is compared with direct sums over them.
"""

from __future__ import annotations

import numpy as np

import checks
import workloads


def parse(text):
    """(metadata {key: [values]}, data rows as a 2d array, column names)."""
    meta = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if sep:
                meta.setdefault(key, []).append(value)
        else:
            rows.append([float(v) for v in line.split(",")])
    columns = meta["columns"][0].split(",")
    data = np.array(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(columns):
        raise ValueError("data rows do not match the columns header")
    return meta, data, columns


def _spec_fails(meta, task):
    fields = dict(item.split("=", 1) for item in meta["spec"][0].split())
    g = task["beta"] * 1.0
    expected = {"bar_omega": 1.0, "g": g, "cavity_L": 2.0 * 1.0 * task["delta"] / g,
                "n_modes": float(task.get("n_modes", 1)), "light_speed": 1.0, "hbar": 1.0}
    return [f"spec field {key} = {fields.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if float(fields.get(key, "nan")) != value]


def _summary(meta, key):
    for item in meta.get("summary", []):
        name, _, value = item.partition("=")
        if name == key:
            return float(value)
    return None


def check(task, text, db, rng):
    """Failure messages for one command's output (empty when it passes)."""
    command = task["command"]
    if command == "validate":
        lines = text.splitlines()
        results = [line for line in lines if line.startswith("check ")]
        if results and all(line.endswith("-> pass") for line in results) \
                and "result: all checks passed" in lines:
            return []
        return ["validate did not report every check passed"]
    try:
        meta, data, columns = parse(text)
        fails = _spec_fails(meta, task)
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    col = dict(zip(columns, data.T))

    if command == "spectrum":
        if task["route"] == "finite-n":
            n = task["n_modes"]
            rows = np.arange(n + 1)
            fails += checks.finite_modes(task["beta"], task["delta"], n, col["omega"],
                                         col["weight"], eig=n <= 800)
        else:
            rows = np.arange(task["k_max"] + 1)
            picks = np.unique(np.concatenate(([0, task["k_max"]],
                                              rng.integers(0, task["k_max"] + 1, 6))))
            fails += checks.cavity_modes(task["beta"], task["delta"], task["k_max"],
                                         col["omega"], col["weight"], picks)
        if not np.array_equal(col["r"], rows):
            fails.append("mode index column is not 0..N")
        return fails

    times = workloads.time_grid(task)
    if not np.array_equal(col["t"], times):
        return fails + ["time column differs from the requested grid"]
    picks = checks.sample_points(rng, times.size, 4)
    spec = workloads.make_spec(db, task)

    if command == "decay":
        re, im, prob = col["re_f00"], col["im_f00"], col["prob"]
        # numpy's x**2 and x*x may differ by an ulp, so allow a few
        if not np.all(np.abs(prob - (re * re + im * im)) <= 4.0 * checks.EPS * prob):
            fails.append("prob != re**2 + im**2 on some row")
        values = re + 1j * im
        if task["method"] == "discrete":
            modes = db.solve_finite_spectrum(spec)
            fails += checks.finite_modes(task["beta"], task["delta"], task["n_modes"],
                                         modes.frequencies, modes.weights)
            fails += checks.discrete_amplitude(modes.frequencies, modes.weights, times,
                                               values, picks)
        else:
            refs = checks.reference_points(task["beta"], times, picks)
            fails += checks.f00_series(task["method"], values, refs,
                                       exact_start=task["method"] == "closed")
    elif command == "brownian":
        refs = checks.reference_points(task["beta"], times, picks)
        fails += checks.brownian_path(col["position"], task["n_bar"], task["theta"], refs)
    else:  # cavity
        prob = col["prob"]
        if _summary(meta, "grid_min") != prob.min():
            fails.append("grid_min summary is not the minimum of the curve")
        pd = np.pi * task["delta"]
        bound = 1.0 - (5.0 / 3.0) * pd + (14.0 / 9.0) * pd * pd
        reported = _summary(meta, "analytic_min_bound")
        if reported is None or abs(reported - bound) > 1e-14:
            fails.append("analytic_min_bound differs from 1 - 5 pi d/3 + 14 (pi d)**2/9")
        modes = db.solve_cavity_spectrum(spec, k_max=task["k_max"], variant="rederived")
        fails += checks.cavity_modes(task["beta"], task["delta"], task["k_max"],
                                     modes.frequencies, modes.weights,
                                     [0, task["k_max"] // 2, task["k_max"]])
        fails += checks.survival_curve(modes.frequencies, modes.weights, times, prob, picks)
    return fails
