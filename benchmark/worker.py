"""Benchmark worker: runs one workload's rounds through `burau.cli.main`.

Reads a JSON job on stdin ({"ops", "seconds", "trace", "out"}), runs whole
rounds one operation at a time (a closed loop with one client) until the
measured time is as close to `seconds` as whole rounds allow, and writes
the timings, each distinct output and, when tracing, the per-layer numbers
to `out`.  `burau` must be importable (the runner puts the checkout's `src`
on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys

from burau import cli
from speed import Speedometer, scale

# One tiny call per command before timing, so one-time lazy work (first
# numpy/LAPACK calls, deferred imports) is not charged to the first round.
WARMUP = (
    ["entropy-bound", "-n", "3", "1 -2", "--grid", "16", "--format", "json"],
    ["verify", "-n", "3", "1 -2", "--gap-lambda", "3", "--grid", "16", "--format", "json"],
    ["matrix", "-n", "3", "1 -2", "--format", "json"],
    ["reduced", "-n", "3", "1 -2", "--format", "json"],
    ["charpoly", "-n", "3", "1 -2", "--reduced", "--format", "json"],
    ["alexander", "-n", "3", "1 -2", "--format", "json"],
    ["growth", "-n", "3", "1 -2", "--iters", "3", "--format", "json"],
)


def run_op(argv: list, meter: Speedometer):
    """One CLI call with stdout and stderr captured; returns (seconds,
    seconds at the reference speed, exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        meter.start()
        try:
            code = cli.main(argv)
        finally:
            elapsed, samples = meter.stop()
    return elapsed, scale(elapsed, samples), code, out.getvalue(), err.getvalue()


def main() -> int:
    job = json.load(sys.stdin)
    ops = job["ops"]
    meter = Speedometer()
    for argv in WARMUP:
        run_op(argv, meter)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    times = []            # [op id, round, seconds, seconds at reference speed]
    outputs: dict = {}    # op id -> {sha256: {"code", "stdout", "stderr", "count"}}
    sweeps = []           # traced (op id, theta_star, radius_star)
    output_bytes = 0
    rounds = 0
    measured = 0.0
    # Whole rounds only, so every run attempts each operation equally often;
    # stop at the round end nearest to `seconds` of measured time.
    while rounds == 0 or measured + 0.5 * measured / rounds < job["seconds"]:
        for op in ops:
            gc.collect()
            if tracer:
                tracer.begin_op()
            elapsed, scaled, code, stdout, stderr = run_op(op["argv"], meter)
            if tracer:
                tracer.end_op()
                sweeps.extend((op["id"], th, r) for th, r in tracer.sweeps)
            measured += elapsed
            output_bytes += len(stdout.encode())
            times.append([op["id"], rounds, elapsed, scaled])
            digest = hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode()).hexdigest()
            seen = outputs.setdefault(str(op["id"]), {})
            if digest in seen:
                seen[digest]["count"] += 1
            else:
                seen[digest] = {"code": code, "stdout": stdout, "stderr": stderr,
                                "count": 1}
        rounds += 1

    result = {
        "rounds": rounds,
        "times": times,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = output_bytes
        result["layers"] = layers
        result["sweeps"] = sweeps
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
