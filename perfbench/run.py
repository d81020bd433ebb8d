"""Benchmark of the dressedbath package, its layers and its command line.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Workloads: spectra, continuum_decay, cli_batch (see README.md).  The
package is imported from ``src/`` next to this directory, never from an
installed copy.  The run times whole rounds of seeded tasks until
--seconds have passed, checks every output against references computed
apart from the package (between rounds, outside the timing), and prints
one JSON object as its last line: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of a second, traced replay of the
same rounds.  Results and traces are also written to perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

# One BLAS thread everywhere: set before numpy loads here, inherited by
# every child.  DRESSED_THREADS stays at the package default.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
os.environ.pop("DRESSED_THREADS", None)

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import cli_checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)
DEADLINE_S = 170
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

_live = []


class Run:
    """What one run measured and found."""

    def __init__(self):
        self.setup_s = []
        self.task_s = []
        self.maxrss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def reject(self, what, fails):
        self.problems += [f"{what}: {msg}" for msg in fails]


def _wait(proc):
    """Reap a child; return (exit code, its peak RSS in KB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _live.remove(proc)
    return proc.returncode, usage.ru_maxrss


def _spawn(cmd, **kwargs):
    proc = subprocess.Popen(cmd, env=kwargs.pop("env", CHILD_ENV), cwd=ROOT, **kwargs)
    _live.append(proc)
    return proc


def run_command(cmd, stderr, env=CHILD_ENV):
    """Run a process to its end; return (wall s, exit code, peak RSS KB)."""
    start = time.perf_counter()
    proc = _spawn(cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    code, rss = _wait(proc)
    return time.perf_counter() - start, code, rss


def start_worker(args, tmp_dir, *flags):
    """Start worker.py and wait for it to finish set-up; return (proc, setup s)."""
    start = time.monotonic()
    proc = _spawn([sys.executable, str(HERE / "worker.py"), str(SRC), args.workload,
                   str(args.seed), str(args.seconds), str(tmp_dir), *flags],
                  stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    message = pickle.load(proc.stdout)
    return proc, message["setup_done"] - start


def probe_setup(args, tmp_dir, run, count):
    for _ in range(count):
        proc, setup = start_worker(args, tmp_dir, "--probe")
        run.setup_s.append(setup)
        if _wait(proc)[0] != 0:
            raise RuntimeError("set-up probe failed")


def in_process(args, tmp_dir, run):
    """spectra / continuum_decay: the worker runs the tasks, we check them."""
    probe_setup(args, tmp_dir, run, SETUP_SAMPLES - 1)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    flags = ("--trace", str(trace_path)) if args.trace else ()
    proc, setup = start_worker(args, tmp_dir, *flags)
    run.setup_s.append(setup)
    for r in itertools.count():
        message = pickle.load(proc.stdout)
        if "done" in message:
            break
        tasks = workloads.round_tasks(args.workload, args.seed, r)
        with open(message["round"], "rb") as channel:
            done = [pickle.load(channel) for _ in tasks]
        os.remove(message["round"])
        # eigvalsh comparison on three seeded finite solves per round
        finite = [j for j, task in enumerate(tasks) if task["kind"] == "finite"]
        rng = np.random.default_rng([args.seed, 1000 + r])
        eig = set(rng.choice(finite, min(3, len(finite)), replace=False).tolist())
        for i, (task, item) in enumerate(zip(tasks, done)):
            run.task_s.append(item["time"])
            run.attempted += 1
            if item["error"]:
                run.failed += 1
                print(f"failed: {task}: {item['error']}", file=sys.stderr)
            else:
                rng = np.random.default_rng([args.seed, r, i])
                run.reject(task, checks.task_output(task, item["out"], rng, eig=i in eig))
        proc.stdin.write(b"g")
        proc.stdin.flush()
    run.maxrss_kb = message["maxrss_kb"]
    rounds = message["rounds"]
    layers = None
    if args.trace:
        message = pickle.load(proc.stdout)
        if message["mismatches"]:
            run.problems.append(f"{message['mismatches']} outputs changed under tracing")
        layers = tracing.per_layer_metrics(message["trace"], rounds)
    proc.stdin.close()
    if _wait(proc)[0] != 0:
        raise RuntimeError("worker exited with an error")
    return rounds, layers


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_batch(args, tmp_dir, run):
    """cli_batch: one fresh `python -m dressedbath` process per task."""
    sys.path.insert(0, str(SRC))
    import dressedbath  # the checks re-solve modes for two commands

    probe_setup(args, tmp_dir, run, SETUP_SAMPLES)
    stderr = open(tmp_dir / "stderr.txt", "ab")
    digests = []
    rounds, elapsed = 0, 0.0
    try:
        while elapsed < args.seconds or rounds < workloads.MIN_ROUNDS["cli_batch"]:
            tasks = workloads.round_tasks("cli_batch", args.seed, rounds)
            paths = [tmp_dir / f"r{rounds}-{i}.csv" for i in range(len(tasks))]
            results = []
            for task, path in zip(tasks, paths):
                cmd = [sys.executable, "-m", "dressedbath", *workloads.cli_argv(task, path)]
                results.append(run_command(cmd, stderr))
                elapsed += results[-1][0]
            rng = np.random.default_rng([args.seed, 1000 + rounds])
            for task, path, (wall, code, rss) in zip(tasks, paths, results):
                run.task_s.append(wall)
                run.attempted += 1
                run.maxrss_kb = max(run.maxrss_kb, rss)
                if code != 0:
                    run.failed += 1
                    print(f"failed: exit {code}: {task}", file=sys.stderr)
                    digests.append(None)
                    continue
                run.reject(task, cli_checks.check(task, path.read_text(), dressedbath, rng))
                digests.append(_digest(path))
                path.unlink()
            rounds += 1

        # one-off, untimed: output bytes must not depend on the thread count
        task = next(t for t in workloads.round_tasks("cli_batch", args.seed, 0)
                    if t.get("method") == "quadrature" and t["command"] == "decay")
        outputs = []
        for threads in ("1", "2"):
            path = tmp_dir / f"threads-{threads}.csv"
            env = dict(CHILD_ENV, DRESSED_THREADS=threads)
            cmd = [sys.executable, "-m", "dressedbath", *workloads.cli_argv(task, path)]
            if run_command(cmd, stderr, env)[1] != 0:
                raise RuntimeError("thread-count determinism command failed")
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            run.problems.append("decay output differs between DRESSED_THREADS=1 and 2")

        if not args.trace:
            return rounds, None

        def traced_round(r, mode):
            # [(task, wall, trace data, output path)] of round r under cli_launch.py
            done = []
            for i, task in enumerate(workloads.round_tasks("cli_batch", args.seed, r)):
                path, trace = tmp_dir / f"t{r}-{i}.csv", tmp_dir / f"t{r}-{i}.json"
                cmd = [sys.executable, str(HERE / "cli_launch.py"), str(trace), mode,
                       *workloads.cli_argv(task, path)]
                wall, code, _ = run_command(cmd, stderr)
                data = json.loads(trace.read_text()) if code == 0 else None
                done.append((task, wall, data, path))
            return done

        traced = [item for r in range(rounds) for item in traced_round(r, "time")]
        for (task, _, data, path), expected in zip(traced, digests):
            if data and _digest(path) != expected:
                run.problems.append(f"output changed under tracing: {task}")
        ok = [(task, data, path) for task, _, data, path in traced if data]
        merged = tracing.merge([data["summary"] for _, data, _ in ok])
        peaks = tracing.merge([data["summary"] for _, _, data, _ in traced_round(0, "peaks")
                               if data])
        merged.update((k, v) for k, v in peaks.items() if k.endswith(".peak_mb"))
        merged["cli.import_s"] = statistics.median(data["import_s"] for _, data, _ in ok)
        merged["cli.bytes_out"] = sum(path.stat().st_size for _, _, path in ok)
        merged["trace.overhead_s"] = sum(wall for _, wall, _, _ in traced) - elapsed
        (OUT / f"trace-cli_batch-seed{args.seed}.json").write_text(json.dumps(
            {"workload": "cli_batch", "seed": args.seed, "rounds": rounds, "summary": merged,
             "processes": [{"task": task, "spans": data["spans"]} for task, data, _ in ok]}))
        return rounds, tracing.per_layer_metrics(merged, rounds)
    finally:
        stderr.close()


def end_to_end(run):
    times = np.array(run.task_s)
    n = times.size
    pct = max((p for p in TAIL_GRID if n * (100 - p) / 100 >= 10), default=50)
    metrics = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "task_s.p50": (float(np.percentile(times, 50)), "s"),
        "task_s.tail": (float(np.percentile(times, pct)), "s"),
        "tasks_per_s": (n / times.sum(), "1/s"),
        "peak_rss_mb": (run.maxrss_kb / 1024.0, "MB"),
    }
    return pct, {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dressedbath" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC / 'dressedbath'}")

    OUT.mkdir(exist_ok=True)
    tmp_dir = OUT / f"tmp-{os.getpid()}"
    tmp_dir.mkdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    run = Run()
    try:
        if args.workload == "cli_batch":
            rounds, layers = cli_batch(args, tmp_dir, run)
        else:
            rounds, layers = in_process(args, tmp_dir, run)
    finally:
        signal.alarm(0)
        for proc in list(_live):
            proc.kill()
            _wait(proc)
        shutil.rmtree(tmp_dir, ignore_errors=True)

    pct, metrics = end_to_end(run)
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": layers if args.trace else metrics,
    }
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "rounds": rounds, "tail_percentile": pct, "end_to_end": metrics,
               "setup_s": run.setup_s, "task_s": run.task_s,
               "problems": run.problems, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(f"# {args.workload} seed={args.seed}: {rounds} rounds, {run.attempted} tasks, "
          f"{sum(run.task_s):.2f} s timed, {len(run.problems)} check failures")
    print(f"# task_s.tail is the p{pct:g} of {len(run.task_s)} task times")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
