"""Fresh-interpreter side of the benchmark (started by run.py, not by hand).

Usage: worker.py SRC_DIR WORKLOAD SEED SECONDS TMP_DIR [--probe] [--trace PATH]

The worker imports the package from SRC_DIR (the CLI module for
cli_batch), runs one warm-up task of each kind at its smallest size and
reports the moment set-up finished.  With --probe it stops there; the
cli_batch timed loop runs in fresh processes that run.py starts itself.
Otherwise it runs whole rounds of the workload until SECONDS of task time
have passed and the workload's minimum round count is met.  It writes each
task's time and output to a file in TMP_DIR and, after each round, hands
the file to run.py and waits for the go-ahead, so run.py's checks never
overlap a timed task and never run between two of them.  With --trace it
then replays the same rounds with the tracer installed and writes the
spans to PATH.

Messages are pickles on stdout; the go-ahead is one byte on stdin.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

_CHANNEL = sys.stdout.buffer
sys.stdout = sys.stderr


def send(message):
    pickle.dump(message, _CHANNEL, protocol=pickle.HIGHEST_PROTOCOL)
    _CHANNEL.flush()


def wait_for_go():
    if sys.stdin.buffer.read(1) != b"g":
        sys.exit(3)


def digest(out):
    h = hashlib.sha256()
    for key in sorted(out):
        h.update(key.encode())
        h.update(out[key].tobytes())
    return h.hexdigest()


def run_one(db, task):
    """(output or None, seconds, error or None); a task that raises has failed."""
    start = time.perf_counter()
    try:
        out, error = workloads.run_task(db, task), None
    except Exception as exc:  # a failed operation is reported, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, error


def set_up(src, workload, tmp_dir):
    """Import the package and warm every task kind up; return (module, import s)."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    if workload == "cli_batch":
        import dressedbath.cli as db
    else:
        import dressedbath as db
    import_s = time.perf_counter() - t0
    if not os.path.abspath(db.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported dressedbath from {db.__file__}, not from {src}")
    for i, task in enumerate(workloads.warmup_tasks(workload)):
        if workload == "cli_batch":
            path = os.path.join(tmp_dir, f"warmup-{os.getpid()}-{i}.csv")
            if db.main(workloads.cli_argv(task, path)) != 0:
                sys.exit(f"warm-up command failed: {task}")
            os.remove(path)
        else:
            workloads.run_task(db, task)
    return db, import_s


def main(argv):
    src, workload, seed, seconds, tmp_dir = argv[:5]
    seed, seconds = int(seed), float(seconds)
    db, import_s = set_up(src, workload, tmp_dir)
    send({"setup_done": time.monotonic(), "import_s": import_s})
    if "--probe" in argv:
        return

    elapsed, rounds, digests = 0.0, 0, []
    while elapsed < seconds or rounds < workloads.MIN_ROUNDS[workload]:
        # Outputs go to a file, outside the timing, and are handed over only
        # when the round is over: checks run between two tasks left them
        # with cold caches, which slowed the short tasks by about a tenth,
        # by a share that moved with the host.  The file keeps them out of
        # this process, so its peak RSS stays the tasks' own.
        path = os.path.join(tmp_dir, f"round-{rounds}.pkl")
        with open(path, "wb") as channel:
            for task in workloads.round_tasks(workload, seed, rounds):
                out, spent, error = run_one(db, task)
                elapsed += spent
                digests.append(out and digest(out))
                pickle.dump({"out": out, "time": spent, "error": error}, channel,
                            protocol=pickle.HIGHEST_PROTOCOL)
                del out
        send({"round": path})
        wait_for_go()
        rounds += 1
    send({"done": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "rounds": rounds})
    if "--trace" not in argv:
        return

    tracer = tracing.Tracer()
    tracer.install()
    traced, mismatches = 0.0, 0
    tasks = [task for r in range(rounds) for task in workloads.round_tasks(workload, seed, r)]
    for task, expected in zip(tasks, digests):
        out, spent, _ = run_one(db, task)
        traced += spent
        mismatches += (out and digest(out)) != expected
    tracer.uninstall()
    # memory pass over the first round, kept apart from the timed spans
    memory = tracing.Tracer(peaks=True)
    memory.install()
    for task in workloads.round_tasks(workload, seed, 0):
        run_one(db, task)
    memory.uninstall()
    summary = tracer.summary()
    summary.update((k, v) for k, v in memory.summary().items() if k.endswith(".peak_mb"))
    summary["cli.import_s"] = import_s
    summary["trace.overhead_s"] = traced - elapsed
    tracer.write(argv[argv.index("--trace") + 1], workload=workload, seed=seed,
                 rounds=rounds, peaks=dict(memory.peak_mb))
    send({"trace": summary, "rounds": rounds, "mismatches": mismatches})


if __name__ == "__main__":
    main(sys.argv[1:])
