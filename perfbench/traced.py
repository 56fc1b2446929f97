"""The traced run (--trace 1): per-layer metrics of one workload.

The run spends half of --seconds untraced and half traced, on the same
rounds, so the difference of the two throughputs is the tracing overhead.
Span-based figures are per job of the traced half.  The four sphere-rule
build figures are per process, because a rule is built once per process:
for ``sphere`` that is the workload process with its set-up; for ``cli``
each job is its own process.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys

from spans import PHI, TRACED, Recorder

def per_layer_units(root) -> dict:
    """name -> unit of every per-layer metric, in BENCHMARK.json's order."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def layer_metrics(rec: Recorder, jobs: int, processes: int) -> dict:
    self_s, calls, under = rec.self_and_counts(jobs_only=True)
    all_self, _, _ = rec.self_and_counts(jobs_only=False)
    c = rec.counters
    # Per-job self time of every traced function, as '<module>.<function>.self_ms'.
    values = {f"{short}.{attr}.self_ms": 1e3 * self_s.get(f"{short}.{attr}", 0.0) / jobs for short, attr in TRACED}
    fp_s = self_s.get("equilibrium.solve_fixed_point", 0.0)
    iterations = c.get("solve_fixed_point.iterations", 0.0)
    values.update({
        "stability.phi_eval_ms": 1e3 * self_s.get(PHI, 0.0) / jobs,
        "quadrature.theta_rule.calls": c.get("theta_rule.calls", 0.0) / jobs,
        "quadrature.theta_rule.misses": c.get("theta_rule.misses", 0.0) / jobs,
        "moments.scaled_moments.calls": calls.get("moments.scaled_moments", 0) / jobs,
        "sigma.find_eta_star.sigma_prime_evals": under.get(("sigma.find_eta_star", "sigma.sigma_prime"), 0) / jobs,
        "sigma.invert_alpha.sigma_evals": under.get(("sigma.invert_alpha", "sigma.sigma_value"), 0) / jobs,
        "spectral.block_spectrum.calls": calls.get("spectral.block_spectrum", 0) / jobs,
        "quadrature.sphere_rule.misses": c.get("sphere_rule.misses", 0.0) / processes,
        "quadrature.build_sphere_quadrature.self_ms":
            1e3 * all_self.get("quadrature.build_sphere_quadrature", 0.0) / processes,
        "quadrature.sphere_nodes_built": c.get("sphere_nodes_built", 0.0) / processes,
        "quadrature.sphere_bytes_built": c.get("sphere_bytes_built", 0.0) / processes,
        "equilibrium.solve_fixed_point.iterations": iterations / jobs,
        "equilibrium.picard_ms_per_iteration": 1e3 * fp_s / iterations if iterations else 0.0,
        "equilibrium.picard_node_updates_per_s":
            c.get("solve_fixed_point.node_updates", 0.0) / fp_s if fp_s else 0.0,
    })
    return values


def _import_split(env: dict, repeats: int = 3) -> tuple[float, float]:
    """Median cumulative import time of onsager_ms.cli and of scipy.stats
    inside it, from ``python -X importtime``, in ms."""
    totals, stats = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import onsager_ms.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        total = stat = 0.0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if not m:
                continue
            cumulative, name = int(m.group(1)), m.group(2)
            if name in ("onsager_ms", "onsager_ms.cli"):
                total = max(total, cumulative)
            elif name == "scipy.stats" and not stat:
                stat = cumulative
        totals.append(total / 1e3)
        stats.append(stat / 1e3)
    return statistics.median(totals), statistics.median(stats)


def run(args, env: dict, bench):
    """Return (per-layer metrics, tally of both halves)."""
    import workloads

    half = args.seconds / 2.0
    rec = Recorder()
    bench.OUT_DIR.mkdir(exist_ok=True)
    cli = args.workload == "cli"
    if not cli:
        from onsager_ms.quadrature import sphere_rule, theta_rule

        sphere0 = sphere_rule.cache_info()
        rec.install()
        workloads.in_process_setup(args.workload)
        rec.uninstall()

    plain = bench.Tally()
    bench.run_rounds(bench.make_round(args.workload, args.seed, env), half, plain)

    traced = bench.Tally()
    if cli:
        spans_file = bench.OUT_DIR / "cli_child.json"

        def absorb(job_id: int) -> None:
            if spans_file.exists():
                rec.absorb(json.loads(spans_file.read_text()), job_id)
                spans_file.unlink()

        jobs = bench.make_round(args.workload, args.seed, env, traced_cli=True)
        bench.run_rounds(jobs, half, traced, after_job=absorb)
    else:
        jobs = bench.make_round(args.workload, args.seed, env, wrap_phi=lambda phi: rec.wrap(PHI, phi))
        theta0 = theta_rule.cache_info()
        rec.install()
        bench.run_rounds(jobs, half, traced, recorder=rec)
        rec.uninstall()
        theta1, sphere1 = theta_rule.cache_info(), sphere_rule.cache_info()
        rec.count("theta_rule.calls", theta1.hits + theta1.misses - theta0.hits - theta0.misses)
        rec.count("theta_rule.misses", theta1.misses - theta0.misses)
        rec.count("sphere_rule.misses", sphere1.misses - sphere0.misses)

    jobs_done = len(traced.latencies)
    units = per_layer_units(bench.ROOT)
    # Metrics of the cli layer read 0 on the in-process workloads.
    values = dict.fromkeys(units, 0.0)
    values.update(layer_metrics(rec, jobs_done, jobs_done if cli else 1))
    if cli:
        values["cli.import_ms"], values["cli.import_scipy_stats_ms"] = _import_split(env)
        for kind, latencies in plain.by_kind.items():
            values[f"{kind}.wall_ms"] = 1e3 * statistics.median(latencies)
    values["trace.jobs_per_s_delta"] = jobs_done / traced.timed - len(plain.latencies) / plain.timed
    rec.dump(bench.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")

    both = bench.Tally()
    for part in (plain, traced):
        both.latencies += part.latencies
        both.attempted += part.attempted
        both.failed += part.failed
        both.unexpected += part.unexpected
        for kind, latencies in part.by_kind.items():
            both.by_kind.setdefault(kind, []).extend(latencies)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, both
