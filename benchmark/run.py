"""Benchmark of the `burau` command line: one workload, one seed, one run.

    python3 benchmark/run.py --workload entropy --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds `src/burau`.  The run

1. times `setup_s`: fresh interpreters importing `burau.cli`, the median of
   `SETUP_LAUNCHES` launches before the worker and as many after it;
2. starts one worker process that runs the workload's round of `burau`
   commands through `burau.cli.main(argv)`, one after another (a closed loop
   with one client), whole rounds for about `--seconds` of operation time;
   every time is scaled to a reference machine speed (`speed.py`);
3. checks every distinct output in a separate process against the oracle
   (`oracle.py`, which shares no code with `burau`);
4. prints one JSON line: `correct`, `attempted`, `failed` and the metrics.

With `--trace 0` the metrics are the end-to-end ones (`setup_s`,
`ops_per_s`, `op_s.p50`, `peak_rss_mb`); with `--trace 1` the worker wraps
`burau`'s public functions (`tracer.py`) and the metrics are the per-layer
ones, per round.  Human-readable detail goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".runs")

sys.path.insert(0, HERE)

from speed import probe_once, scale  # noqa: E402
from workloads import WORKLOADS, round_ops  # noqa: E402

SETUP_LAUNCHES = 5
SETUP_PROBES = 5
IMPORTTIME_LAUNCHES = 3
SETUP_TIMEOUT = 60
WORKER_SLACK = 60
CHECK_TIMEOUT = 60

# Metrics that are not totals over the rounds, so not divided by them.
NOT_PER_ROUND = {"spectral.radius_excess", "spectral.import_s"}


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # Timed imports read bytecode caches, as an installed package's would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def launch_import(env: dict, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", "import burau.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT, check=True)


def measure_setup(env: dict, launches: int) -> list:
    """CPU times (user and system, of the child and its threads) of fresh
    interpreters importing `burau.cli`, at the reference speed.  CPU time,
    since most of a launch's wall time on a busy shared machine is spent
    waiting for a CPU; the probe runs just before and after each launch."""
    times = []
    for _ in range(launches):
        before = statistics.median(probe_once() for _ in range(SETUP_PROBES))
        used = resource.getrusage(resource.RUSAGE_CHILDREN)
        launch_import(env)
        now = resource.getrusage(resource.RUSAGE_CHILDREN)
        after = statistics.median(probe_once() for _ in range(SETUP_PROBES))
        cpu = (now.ru_utime - used.ru_utime) + (now.ru_stime - used.ru_stime)
        times.append(scale(cpu, [before, after]))
    return times


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")


def spectral_import_s(env: dict) -> float:
    """Cumulative import time of `burau.spectral` (with everything it pulls
    in) from `python -X importtime`, median over a few launches."""
    values = []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = launch_import(env, "-X", "importtime")
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(3) == "burau.spectral":
                values.append(int(m.group(2)) * 1e-6)
    return statistics.median(values) if values else 0.0


def run_child(argv: list, env: dict, stdin: str, timeout: float) -> str:
    """Run a child to completion (or kill it and wait on timeout); returns
    its stdout, raises RuntimeError on a nonzero exit."""
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{os.path.basename(argv[1])} timed out") from None
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(argv[1])} exited {proc.returncode}: "
                           f"{err.strip()[-2000:]}")
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup_times: list) -> dict:
    """Each operation's time is the median over the run's rounds of its time
    at the reference speed; `ops_per_s` is a round's operations over the sum
    of those times and `op_s.p50` their median."""
    by_op: dict = {}
    for op_id, _, _, scaled in result["times"]:
        by_op.setdefault(op_id, []).append(scaled)
    per_op = [statistics.median(v) for v in by_op.values()]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(len(per_op) / sum(per_op), "1/s"),
        "op_s.p50": metric(statistics.median(per_op), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict, verdict: dict, import_s: float) -> dict:
    """Every per-layer metric that BENCHMARK.json lists, per round."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer"]
    layers = dict(result["layers"])
    layers["spectral.radius_excess"] = verdict.get("radius_excess", 0.0)
    layers["spectral.import_s"] = import_s
    out = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        value = layers.get(name, 0)
        if name not in NOT_PER_ROUND:
            value = value / result["rounds"]
        out[name] = metric(value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "burau", "cli.py")):
        return fail(f"no burau sources under {SRC}; run from a checkout of the repository")

    # Termination unwinds through `run_child`, which stops the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR)
    try:
        ops = round_ops(args.workload, args.seed)
        job = {"workload": args.workload, "seed": args.seed, "ops": ops,
               "seconds": args.seconds, "trace": args.trace,
               "out": os.path.join(workdir, "result.json")}
        job_path = os.path.join(workdir, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        try:
            launch_import(env)  # untimed: writes the bytecode caches
            # Half the set-up launches before the worker and half after, so
            # their median spans the run, not one moment of the machine's load.
            setup_times = measure_setup(env, SETUP_LAUNCHES)
            # numpy and scipy each bundle an OpenBLAS that would start a
            # thread per core; one client runs on one thread.
            run_child([sys.executable, os.path.join(HERE, "worker.py")],
                      dict(env, OPENBLAS_NUM_THREADS="1"), json.dumps(job),
                      args.seconds + WORKER_SLACK)
            with open(job["out"]) as fh:
                result = json.load(fh)
            verdict = json.loads(run_child(
                [sys.executable, os.path.join(HERE, "check.py"), job_path, job["out"]],
                env, "", CHECK_TIMEOUT))
            setup_times += measure_setup(env, SETUP_LAUNCHES)
            import_s = spectral_import_s(env) if args.trace else 0.0
        except (RuntimeError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc))

        for problem in verdict["problems"]:
            print(problem, file=sys.stderr)
        metrics = end_to_end(result, setup_times)
        print(f"{args.workload} seed={args.seed} trace={args.trace}: "
              f"{result['rounds']} rounds, {len(result['times'])} operations, "
              f"{sum(t for _, _, t, _ in result['times']):.2f} s measured "
              f"({sum(t for _, _, _, t in result['times']):.2f} s at reference speed), "
              f"ops_per_s={metrics['ops_per_s']['value']:.4f}", file=sys.stderr)
        if args.trace:
            metrics = per_layer(result, verdict, import_s)
        print(json.dumps({"correct": verdict["correct"], "attempted": verdict["attempted"],
                          "failed": verdict["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
