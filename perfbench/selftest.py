"""Self-test of the benchmark's checks: each must accept a correct output
and reject the same output after a small perturbation.

    python3 perfbench/selftest.py

Prints one line per case and exits non-zero if a correct output is
rejected or a perturbed one gets through.
"""

from __future__ import annotations

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import cli_checks  # noqa: E402
import workloads  # noqa: E402
import dressedbath as db  # noqa: E402

FINITE = {"kind": "finite", "beta": 0.3, "delta": 4.0, "n_modes": 60, "t_max": 50.0,
          "samples": 200, "matrix": True}
CAVITY = {"kind": "cavity", "beta": 0.3, "delta": 0.02, "k_max": 2000, "t_max": 0.3,
          "samples": 64}
CONTINUUM = {"kind": "continuum", "beta": 0.3, "delta": 0.05, "t_max": 30.0,
             "samples": 40, "n_bar": 1.5, "theta": 0.7}
DECAY = {"kind": "cli", "command": "decay", "method": "quadrature", "beta": 0.3,
         "delta": 0.05, "t_max": 30.0, "samples": 40}


def _nudge_finite_root(out):
    # move Omega_5 just above omega_6, out of its bracket (omega_5, omega_6)
    freq = out["freq"].copy()
    omega_k = checks._ladder(FINITE["beta"], FINITE["delta"], FINITE["n_modes"])[3]
    freq[5] = omega_k[5] * (1.0 + 1e-9)
    out["freq"] = freq


def _nudge_cavity_root(out):
    # move every root one branch up: x -> x + pi
    out["freq"] = out["freq"] + math.pi * 2.0 / (2.0 * CAVITY["delta"] / CAVITY["beta"])


def _scale(key, factor):
    def perturb(out):
        out[key] = out[key] * factor
    return perturb


def _shift(key, amount):
    def perturb(out):
        out[key] = out[key] + amount
    return perturb


PERTURBATIONS = [
    (FINITE, "weights scaled by 1 + 1e-6", _scale("weights", 1.0 + 1e-6)),
    (FINITE, "a root nudged across its bracket", _nudge_finite_root),
    (FINITE, "transform entries scaled by 1 + 1e-8", _scale("matrix", 1.0 + 1e-8)),
    (FINITE, "discrete f00 scaled by 1 + 1e-9", _scale("f00", 1.0 + 1e-9)),
    (CAVITY, "roots nudged one branch up", _nudge_cavity_root),
    (CAVITY, "cavity weights scaled by 1 + 1e-6", _scale("weights", 1.0 + 1e-6)),
    (CAVITY, "survival curve shifted by 1e-9", _shift("survival", 1e-9)),
    (CONTINUUM, "quadrature f00 shifted by 1e-7", _shift("quad", 1e-7)),
    (CONTINUUM, "closed-form f00 shifted by 1e-7j", _shift("closed", 1e-7j)),
    (CONTINUUM, "J shifted by 1e-7", _shift("J", 1e-7)),
    (CONTINUUM, "Brownian path shifted by 1e-7", _shift("path", 1e-7)),
]


def _flip(text, index):
    data = bytearray(text.encode())
    data[index] ^= 0x01
    return data.decode()


def main():
    missed = 0

    def report(ok, what):
        nonlocal missed
        missed += not ok
        print(("ok      " if ok else "MISSED  ") + what)

    for task in (FINITE, CAVITY, CONTINUUM):
        out = workloads.run_task(db, task)
        fails = checks.task_output(task, out, np.random.default_rng(0), eig=True)
        report(not fails, f"correct {task['kind']} output accepted {fails or ''}")
        for target, what, perturb in PERTURBATIONS:
            if target is task:
                bad = copy.deepcopy(out)
                perturb(bad)
                report(bool(checks.task_output(task, bad, np.random.default_rng(0),
                                               eig=True)), f"rejected: {what}")

    tmp_dir = ROOT / "perfbench-out"
    tmp_dir.mkdir(exist_ok=True)
    path = tmp_dir / f"selftest-{os.getpid()}.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "dressedbath", *workloads.cli_argv(DECAY, path)],
                   check=True, env=env, cwd=ROOT)
    text = path.read_text()
    path.unlink()

    def cli_fails(candidate):
        return cli_checks.check(DECAY, candidate, db, np.random.default_rng(0))

    report(not cli_fails(text), "correct decay CSV accepted")
    starts, pos = [], 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            starts.append(pos)
        pos += len(line)
    row = starts[len(starts) // 2]
    offsets = {
        "first byte of a row's re field": row + text[row:].index(",") + 1,
        "first byte of a row's time value": starts[len(starts) // 2 + 1],
        "first digit of g in the spec line": text.index(" g=") + 3,
    }
    for what, index in offsets.items():
        report(bool(cli_fails(_flip(text, index))), f"rejected: one flipped byte, {what}")
    report(bool(cli_checks.check({"command": "validate"},
                                 "check x: -> FAIL\nresult: 1 check(s) failed\n", db, None)),
           "rejected: validate report with a failed check")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
