"""Benchmark of record for onsager_ms: three closed-loop workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload branches|sphere|cli --seed N \
        --seconds S --trace 0|1

Each invocation is one fresh process that serves one workload, one job
after another, with BLAS and OpenMP pinned to one thread.  It repeats whole
rounds of jobs until the timed job time reaches --seconds, checks every
output against ``oracle``, and prints one JSON object as its last line.
With --trace 0 that object holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("branches", "sphere", "cli")
SETUP_REPEATS = 5
TAIL_MIN_JOBS = 40
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# Set-up time


class SetupClock:
    """Times the workload's one-off set-up in fresh interpreters.

    A sample is the wall time from spawning ``python -c SETUP_CODE`` until
    it reports ready.  One throwaway start first warms the OS file cache.
    Two samples are taken before the first round and one after each round,
    topped up to SETUP_REPEATS at the end, so the median spans the host's
    drift over the whole run rather than one moment of it.
    """

    def __init__(self, workload: str, env: dict) -> None:
        import workloads

        self.code = workloads.SETUP_CODE[workload] + "\nimport sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n"
        self.env = env
        self.samples: list[float] = []
        self._spawn()
        for _ in range(2):
            self.samples.append(self._spawn())

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", self.code], env=self.env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.read(6)
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line != b"ready\n":
                raise RuntimeError("the workload's set-up failed in a fresh interpreter")
        return t1 - t0

    def between_rounds(self) -> None:
        if len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._spawn())

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._spawn())
        return statistics.median(self.samples)


# --------------------------------------------------------------------------
# The closed loop


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        # Latencies of each job of the round (by position), over the rounds.
        self.per_job: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.by_kind: dict[str, list[float]] = {}
        self._reported: set[str] = set()

    @property
    def timed(self) -> float:
        return sum(self.latencies)

    def record(self, slot: int, job, latency: float, failed_ops: int, known: bool) -> None:
        self.latencies.append(latency)
        self.per_job.setdefault(slot, []).append(latency)
        self.by_kind.setdefault(job.kind, []).append(latency)
        self.attempted += job.ops
        self.failed += failed_ops
        if failed_ops and not known:
            self.unexpected += failed_ops
            if job.kind not in self._reported:
                self._reported.add(job.kind)
                print(f"unexpected failure in a {job.kind} job", file=sys.stderr)


def run_rounds(jobs, seconds: float, tally: Tally, recorder=None, after_job=None,
               between_rounds=None) -> None:
    """Repeat whole rounds of ``jobs`` until the timed job time reaches
    ``seconds``.  Only ``job.run`` is timed; checks run outside."""
    start = tally.timed
    while True:
        for slot, job in enumerate(jobs):
            if recorder is not None:
                recorder.current_job = len(tally.latencies)
            t0 = time.perf_counter()
            try:
                out = job.run()
                error = None
            except Exception:  # a raising job fails all its operations
                error = traceback.format_exc()
            latency = time.perf_counter() - t0
            if after_job is not None:
                after_job(len(tally.latencies))
            known = False
            if error is None:
                try:
                    bad = job.check(out)
                    known = bool(bad) and job.known_fault is not None and job.known_fault(out)
                except Exception:
                    bad, error = job.ops, traceback.format_exc()
            else:
                bad = job.ops
            if error:
                print(error, file=sys.stderr)
            tally.record(slot, job, latency, bad, known)
        if between_rounds is not None:
            between_rounds()
        if tally.timed - start >= seconds:
            return


def make_round(workload: str, seed: int, env: dict, traced_cli=False, wrap_phi=None):
    import workloads

    if workload == "branches":
        return workloads.branches_round(seed)
    if workload == "sphere":
        return workloads.sphere_round(seed, wrap_phi or (lambda phi: phi))
    argv_for = workloads.cli_argv
    if traced_cli:
        def argv_for(sub, args):
            return [sys.executable, str(HERE / "cli_child.py"), str(OUT_DIR / "cli_child.json"), sub, *args]
    return workloads.cli_round(seed, env, argv_for)


# --------------------------------------------------------------------------
# Metrics


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    # A job's latency is the median over its repeats in the run's rounds
    # (same inputs each round), so a burst of host noise in one round does
    # not become a sample of its own.
    lat = sorted(statistics.median(v) for v in tally.per_job.values())
    p50 = statistics.median(lat)
    # The highest percentile with TAIL_BEYOND jobs beyond it; with fewer
    # than TAIL_MIN_JOBS jobs there is no tail and the median is reported.
    tail = lat[len(lat) - TAIL_BEYOND - 1] if len(lat) >= TAIL_MIN_JOBS else p50
    return {
        "jobs_per_s": {"value": len(tally.latencies) / tally.timed, "unit": "1/s"},
        "job_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "job_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "onsager_ms" / "__init__.py").is_file():
        print(f"error: no onsager_ms package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    env = workloads.child_env(str(SRC))

    if args.trace:
        import traced

        metrics, tally = traced.run(args, env, sys.modules[__name__])
    else:
        clock = SetupClock(args.workload, env)
        workloads.in_process_setup(args.workload)
        tally = Tally()
        run_rounds(make_round(args.workload, args.seed, env), args.seconds, tally,
                   between_rounds=clock.between_rounds)
        metrics = end_to_end(tally, clock.median(), peak_rss_mb(args.workload))
    for kind, values in sorted(tally.by_kind.items()):
        print(f"{kind}: {len(values)} jobs, median {statistics.median(values) * 1e3:.2f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
