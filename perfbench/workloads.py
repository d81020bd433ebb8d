"""Seeded task rounds for the three benchmark workloads.

A run repeats whole *rounds*.  Every round of a workload holds the same
operations at the same sizes: the sizes that set a task's cost (N, k_max,
grid lengths, validate's n_modes) sit on fixed grids, so the cost of a
round and the shape of its task-time distribution do not depend on the
seed, and the percentiles a run reports land on the same tasks every time.
The seed and the round index draw everything else (couplings, cavity
sizes, preparations) by Latin-hypercube strata: one draw per equal slice
of each range, slices shuffled between parameters.  Where the coupling
does move the cost (the continuum quadrature), each task keeps its own
narrow slice of the coupling range.

The order of the tasks in a round is fixed too.  The allocator's state
depends on the sizes allocated before (glibc raises its mmap threshold
after the first large free), so a task's time and the process's peak RSS
depend on what ran before it; a fixed order keeps both repeatable.

Task records are plain dicts, so they pickle to the worker and print into
result files unchanged.  All specs use bar_omega = 1 and light_speed = 1,
which makes g = beta and the cavity length L = 2 * delta / beta.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("spectra", "continuum_decay", "cli_batch")

# Whole rounds a run must complete: enough that the tail percentile the
# result reports keeps at least ten tasks beyond it (see run.py).
MIN_ROUNDS = {"spectra": 5, "continuum_decay": 5, "cli_batch": 4}

# finite-N solves up to this N go through finite_matrix as well; its output
# is (N+1)**2, so it stays at modest sizes.
MATRIX_MAX_N = 300


def _grid(m, lo, hi):
    """m log-spaced values, one at the centre of each equal slice of [lo, hi]."""
    return lo * (hi / lo) ** ((np.arange(m) + 0.5) / m)


def _strata(rng, m, lo, hi, log=True, shuffle=True):
    """One draw per equal slice of [lo, hi] (log-spaced unless log=False).

    With shuffle=False draw i stays in slice i."""
    slices = rng.permutation(m) if shuffle else np.arange(m)
    u = (slices + rng.random(m)) / m
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


def _critical_beta(kappa_sq):
    # bar_omega = 1: kappa_sq = 1 - (pi*beta/2)**2
    return 2.0 / math.pi * math.sqrt(1.0 - kappa_sq)


# Sizes of one spectra round.  Twelve solves at N = 300, with as many
# cheaper tasks below them as dearer ones above, hold the median; four at
# N = 1000, with the k_max = 1e5 ladder of about the same cost, hold the
# 95th percentile.  So each percentile sits inside a block of equal-cost
# tasks rather than on the edge between two sizes.
SPECTRA_N = ([int(n) for n in np.rint(40 * 6.25 ** (np.arange(12) / 11))]
             + [300] * 12 + [500, 700] + [1000] * 4)
SPECTRA_K_MAX = [int(k) for k in np.rint(1000 * 100 ** (np.arange(10) / 9))]


def spectra_round(rng):
    """30 finite-N solves (N 40..1000) and 10 cavity ladders (k_max 1e3..1e5)."""
    tasks = []
    m = len(SPECTRA_N)
    beta = _strata(rng, m, 0.05, 5.0)
    # top of the bath ladder N * delta_omega, in units of bar_omega; with
    # delta_omega = pi * beta / delta this fixes delta.
    top = _strata(rng, m, 20.0, 200.0)
    for n, b, tp in zip(SPECTRA_N, beta, top):
        tasks.append({
            "kind": "finite",
            "beta": float(b),
            "delta": float(n * math.pi * b / tp),
            "n_modes": n,
            "t_max": 50.0,
            "samples": 200,
            "matrix": n <= MATRIX_MAX_N,
        })
    m = len(SPECTRA_K_MAX)
    beta = _strata(rng, m, 0.01, 10.0)
    delta = _strata(rng, m, 1e-3, 0.3)
    for k, b, d in zip(SPECTRA_K_MAX, beta, delta):
        # k_max * samples stays near 2e6 so no single survival series
        # dominates; the grid spans two cavity round trips L/c = 2*delta/beta.
        tasks.append({
            "kind": "cavity",
            "beta": float(b),
            "delta": float(d),
            "k_max": k,
            "t_max": float(4.0 * d / b),
            "samples": min(400, 2_000_000 // k),
        })
    return tasks


# grid lengths and spans of the 28 weak, near-critical and strong specs,
# fixed per position
_CONTINUUM_SAMPLES = np.rint(16 + 80 * (np.random.default_rng(42).permutation(28) + 0.5) / 28)
_CONTINUUM_T_MAX = _grid(28, 10.0, 60.0)[np.random.default_rng(41).permutation(28)]
# the median block: thirteen critical-band specs of one size.  Inside the
# band beta = 2/pi to 1e-9, so their cost does not depend on the seed; the
# size puts as many dearer tasks above the block as cheaper ones below it.
MEDIAN_BLOCK = 13
MEDIAN_SAMPLES, MEDIAN_T_MAX = 72, 30.0


def continuum_round(rng):
    """46 continuum specs: weak, near-critical and strong ones of varied size,
    a block of thirteen equal-cost critical-band specs that holds the median,
    and a block of five equal-cost strong-coupling specs that holds the tail."""
    kappa_near = _strata(rng, 8, 1e-8, 1e-4, shuffle=False) * np.array([1.0, -1.0] * 4)
    kappa_band = _strata(rng, MEDIAN_BLOCK, -9e-10, 9e-10, log=False)
    beta = np.concatenate((
        _strata(rng, 12, 0.01, 0.5, shuffle=False),
        [_critical_beta(k) for k in kappa_near],
        _strata(rng, 8, 0.7, 6.0, shuffle=False),
        [_critical_beta(k) for k in kappa_band],
        _strata(rng, 5, 8.0, 9.0),
    ))
    samples = np.concatenate((_CONTINUUM_SAMPLES, [MEDIAN_SAMPLES] * MEDIAN_BLOCK, [32] * 5))
    t_max = np.concatenate((_CONTINUUM_T_MAX, [MEDIAN_T_MAX] * MEDIAN_BLOCK, [60.0] * 5))
    n_bar = _strata(rng, beta.size, 0.5, 2.0)
    theta = _strata(rng, beta.size, 0.0, 2.0 * math.pi, log=False)
    return [
        {
            "kind": "continuum",
            "beta": float(b),
            "delta": 0.05,
            "t_max": float(tm),
            "samples": int(s),
            "n_bar": float(nb),
            "theta": float(th),
        }
        for b, s, tm, nb, th in zip(beta, samples, t_max, n_bar, theta)
    ]


# validate's n_modes: the dense Jacobi makes these the dearest commands.
# Over four rounds, twelve equal ones below the four largest put the p75
# that task_s.tail reports (12 tasks beyond it) inside a block of
# equal-cost commands.  With n_modes 80, 100 and 120 it fell on the edge
# between validate at 80 and the cheaper commands, and jumped by a fifth
# when one of those ran slow.
CLI_VALIDATE_MODES = (100, 100, 100, 120)


def cli_round(rng):
    """12 CLI invocations covering every subcommand, at fixed sizes."""
    u = rng.random(10)

    def pick(i, lo, hi, log=True):
        return float(lo * (hi / lo) ** u[i] if log else lo + (hi - lo) * u[i])

    weak = pick(0, 0.05, 0.5)
    return [
        {"kind": "cli", "command": "decay", "method": "closed", "beta": weak,
         "delta": 0.05, "t_max": 40.0, "samples": 400},
        {"kind": "cli", "command": "decay", "method": "quadrature",
         "beta": pick(1, 0.2, 0.4), "delta": 0.05, "t_max": 30.0, "samples": 100},
        {"kind": "cli", "command": "decay", "method": "discrete", "beta": weak,
         "delta": pick(2, 0.2, 1.0), "n_modes": 200, "t_max": 40.0, "samples": 200},
        {"kind": "cli", "command": "brownian", "method": "closed", "beta": pick(3, 1.0, 5.0),
         "delta": 0.05, "t_max": 40.0, "samples": 400, "n_bar": pick(4, 0.5, 2.0),
         "theta": pick(5, 0.0, 2.0 * math.pi, log=False)},
        {"kind": "cli", "command": "brownian", "method": "quadrature", "beta": weak,
         "delta": 0.05, "t_max": 30.0, "samples": 60, "n_bar": 1.0,
         "theta": pick(6, 0.0, 2.0 * math.pi, log=False)},
        {"kind": "cli", "command": "spectrum", "route": "finite-n", "beta": pick(7, 1.0, 5.0),
         "delta": 4.0, "n_modes": 400},
        {"kind": "cli", "command": "spectrum", "route": "cavity", "beta": weak,
         "delta": pick(8, 0.005, 0.05), "k_max": 20000},
        {"kind": "cli", "command": "cavity", "beta": weak, "delta": pick(9, 0.002, 0.02),
         "k_max": 2000, "regime": "weak", "t_max": 20.0, "samples": 200},
    ] + [
        {"kind": "cli", "command": "validate", "beta": 0.3, "delta": 0.05, "n_modes": n}
        for n in CLI_VALIDATE_MODES
    ]


_ROUNDS = {"spectra": spectra_round, "continuum_decay": continuum_round,
           "cli_batch": cli_round}


def round_tasks(workload, seed, index):
    """Task list of round `index` of a workload: seeded inputs, fixed order."""
    tasks = _ROUNDS[workload](np.random.default_rng([seed, WORKLOADS.index(workload), index]))
    order = np.random.default_rng(WORKLOADS.index(workload)).permutation(len(tasks))
    return [tasks[i] for i in order]


def warmup_tasks(workload):
    """One task of each kind at its smallest size (set-up, not timed)."""
    if workload == "spectra":
        return [
            {"kind": "finite", "beta": 0.3, "delta": 0.5, "n_modes": 40,
             "t_max": 50.0, "samples": 200, "matrix": True},
            {"kind": "cavity", "beta": 0.3, "delta": 0.05, "k_max": 1000,
             "t_max": 1.0, "samples": 16},
        ]
    if workload == "continuum_decay":
        return [{"kind": "continuum", "beta": 0.3, "delta": 0.05, "t_max": 10.0,
                 "samples": 8, "n_bar": 1.0, "theta": 0.5}]
    return [
        {"kind": "cli", "command": "decay", "method": method, "beta": 0.3,
         "delta": 0.5, "n_modes": 10, "t_max": 10.0, "samples": 8}
        for method in ("closed", "quadrature", "discrete")
    ] + [
        {"kind": "cli", "command": "brownian", "method": "closed", "beta": 0.3,
         "delta": 0.05, "t_max": 10.0, "samples": 8, "n_bar": 1.0, "theta": 0.5},
        {"kind": "cli", "command": "spectrum", "route": "finite-n", "beta": 0.3,
         "delta": 0.5, "n_modes": 10},
        {"kind": "cli", "command": "spectrum", "route": "cavity", "beta": 0.3,
         "delta": 0.05, "k_max": 100},
        {"kind": "cli", "command": "cavity", "beta": 0.3, "delta": 0.005,
         "k_max": 100, "regime": "weak", "t_max": 10.0, "samples": 8},
        {"kind": "cli", "command": "validate", "beta": 0.3, "delta": 0.05,
         "n_modes": 10},
    ]


# ---------------------------------------------------------------------------
# executing a task
# ---------------------------------------------------------------------------

def time_grid(task):
    return np.linspace(0.0, task["t_max"], task["samples"])


def make_spec(db, task):
    return db.OhmicSystemSpec.from_dimensionless(
        beta=task["beta"], delta=task["delta"], n_modes=task.get("n_modes", 1),
        light_speed=1.0,
    )


def run_task(db, task):
    """Run one in-process task against the package `db`; return its outputs.

    Every call goes through the package namespace at call time, so the
    tracer's patched functions are the ones that run.
    """
    spec = make_spec(db, task)
    if task["kind"] == "finite":
        modes = db.solve_finite_spectrum(spec)
        out = {"freq": modes.frequencies, "weights": modes.weights}
        if task["matrix"]:
            out["matrix"] = db.finite_matrix(spec, modes).entries
        out["f00"] = db.f00_discrete(modes, modes.weights, time_grid(task)).values
        return out
    if task["kind"] == "cavity":
        modes = db.solve_cavity_spectrum(spec, k_max=task["k_max"], variant="rederived")
        w = modes.weights
        survival = db.cavity_survival_series((w[0], w[1:]), modes.frequencies,
                                             time_grid(task))
        return {"freq": modes.frequencies, "weights": w, "survival": survival}
    times = time_grid(task)
    quad = db.f00_quadrature(spec, times)
    prep = db.CoherentPreparation(n_bar=task["n_bar"], theta=task["theta"])
    return {
        "quad": quad.values,
        "closed": db.f00_closed(spec, times).values,
        "J": db.bath_integral_J(spec, times[1:]),
        "path": db.classical_path(spec, prep, times, quad),
    }


def cli_argv(task, out_path):
    """dressedbath command-line arguments for a CLI task."""
    argv = [task["command"], "--bar-omega", "1", "--beta", str(task["beta"]),
            "--delta", str(task["delta"]), "--light-speed", "1"]
    for key, flag in (("method", "--method"), ("route", "--route"),
                      ("n_modes", "--n-modes"), ("k_max", "--k-max"),
                      ("t_max", "--t-max"), ("samples", "--samples"),
                      ("n_bar", "--n-bar"), ("theta", "--theta"),
                      ("regime", "--regime")):
        if key in task:
            argv += [flag, str(task[key])]
    if task["command"] in ("cavity", "spectrum") and task.get("route", "cavity") == "cavity":
        argv += ["--eq11-variant", "rederived"]
    return argv + ["--out", str(out_path)]
