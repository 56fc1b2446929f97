"""Command-line front end emitting reproducible CSV and JSON artifacts.

Every number is printed with full round-trip precision, rows end with
LF, JSON keys are sorted, and all randomness flows through the --seed
of ``solve-m`` and ``verify`` (default 0), so identical invocations
produce byte-identical files.  Each subcommand accepts only the options
it reads; any other option is a usage error.

Exit codes: 0 success, 1 verification or numerical failure, 2 usage or
I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .equilibrium import OrderTensor, eigenvalue_structure, solve_fixed_point
from .quadrature import DEFAULT_ORDER, SphereParams
from .sigma import find_eta_star, phase_diagram, sample
from .spectral import full_spectrum
from .stability import branch_tag, classify
from .verify import VerifyConfig, run_all


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _eta_grid(args: argparse.Namespace) -> np.ndarray:
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    if not np.isfinite([args.eta_min, args.eta_max]).all():
        raise ValueError(f"eta-min and eta-max must be finite, got {args.eta_min} and {args.eta_max}")
    if not args.eta_min <= args.eta_max:
        raise ValueError("eta-min must not exceed eta-max")
    return np.linspace(args.eta_min, args.eta_max, args.samples)


def cmd_sigma(args: argparse.Namespace) -> tuple[str, int]:
    params = SphereParams(args.n, args.k)
    lines = ["eta,sigma,sigma_prime,stable"]
    for eta in _eta_grid(args):
        point = sample(params, float(eta))
        tag = branch_tag(params, float(eta))
        lines.append(f"{_fmt(point.eta)},{_fmt(point.sigma)},{_fmt(point.sigma_prime)},{tag}")
    return "\n".join(lines) + "\n", 0


def cmd_phase_diagram(args: argparse.Namespace) -> tuple[str, int]:
    diagram = phase_diagram(args.n, _eta_grid(args))
    lines = ["k,eta,alpha,stability"]
    for branch in diagram.branches:
        for point, tag in zip(branch.samples, branch.tags):
            label = f"{tag} reflected" if branch.reflected else tag
            lines.append(f"{branch.k},{_fmt(point.eta)},{_fmt(point.sigma)},{label}")
    return "\n".join(lines) + "\n", 0


def cmd_eta_star(args: argparse.Namespace) -> tuple[str, int]:
    star = find_eta_star(SphereParams(args.n, args.k))
    payload = {"n": args.n, "k": args.k, "eta_star": star.eta_star, "alpha_star": star.alpha_star}
    return _json(payload), 0


def cmd_classify(args: argparse.Namespace) -> tuple[str, int]:
    report = classify(SphereParams(args.n, args.k), args.eta, args.alpha)
    payload = {
        "n": args.n,
        "k": args.k,
        "eta": report.eta,
        "alpha": report.alpha,
        "classification": report.classification,
        "d_quantities": [float(x) for x in report.d_quantities],
        "witness_value": report.witness_value,
        "witness": None,
    }
    if report.witness is not None:
        witness = report.witness
        payload["witness"] = {
            "theta": [float(x) for x in witness.theta_grid],
            "coefficients": {
                f"{idx.family}({idx.indices[0]},{idx.indices[1]})": [float(v) for v in vals]
                for idx, vals in witness.coefficients.items()
            },
            "b": [float(x) for x in witness.b],
        }
    return _json(payload), 0


def cmd_spectrum(args: argparse.Namespace) -> tuple[str, int]:
    report = full_spectrum(SphereParams(args.n, args.k), args.eta, args.grid, args.alpha)
    payload = {
        "n": args.n,
        "k": args.k,
        "eta": report.eta,
        "alpha": report.alpha,
        "grid_size": report.grid_size,
        "multiplicities": dict(report.multiplicities),
        "eigenvalues": [float(x) for x in report.eigenvalues],
        "threshold": report.threshold,
        "kernel_dim": report.kernel_dim,
        "gap": report.gap,
        "ambiguous": report.ambiguous,
        "kernel_projection": report.kernel_projection,
        "blocks": {
            family: {
                "eigenvalues": [float(x) for x in block.eigenvalues],
                "closed_form": [float(x) for x in block.closed_form],
            }
            for family, block in report.blocks.items()
        },
    }
    return _json(payload), 0


def cmd_solve_m(args: argparse.Namespace) -> tuple[str, int]:
    rng = np.random.default_rng(args.seed)
    initial = OrderTensor.random_unit(args.n, rng)
    result = solve_fixed_point(args.n, args.alpha, initial, tol=args.tol)
    clusters = eigenvalue_structure(result.tensor)
    payload = {
        "n": args.n,
        "alpha": args.alpha,
        "seed": args.seed,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "update_norm": result.update_norm,
        "tensor": [[float(x) for x in row] for row in result.tensor.entries],
        "clusters": {
            "count": clusters.count,
            "values": [float(v) for v in clusters.values],
            "multiplicities": list(clusters.multiplicities),
            "ambiguous": clusters.ambiguous,
            "threshold": clusters.threshold,
        },
    }
    return _json(payload), 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    results = run_all(VerifyConfig(quad_order=args.quad_order, tol=args.tol, seed=args.seed))
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:<24} residual={r.residual:.3e}  tol={r.tolerance:.3e}"
        if r.detail:
            line += f"  ({r.detail})"
        lines.append(line)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", 0 if failed == 0 else 1


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# One definition per option; each subcommand declares only the ones it reads.
_OPTIONS = {
    "--n": dict(type=int, help="ambient dimension"),
    "--k": dict(type=int, help="branch index (1..n-1)"),
    "--eta": dict(type=float, help="order parameter"),
    "--alpha": dict(type=float, help="interaction strength"),
    "--eta-min": dict(type=float, default=-10.0),
    "--eta-max": dict(type=float, default=30.0),
    "--samples": dict(type=int, default=401),
    "--grid": dict(type=int, default=64, help="spectral grid size"),
    "--seed": dict(type=int, default=0, help="random seed (default %(default)s)"),
    "--out": dict(help="output path (default: stdout)"),
}
_ETA_GRID = ("--eta-min", "--eta-max", "--samples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onsager-ms",
        description="Critical points and stability of the Onsager model "
        "with Maier-Saupe interaction on S^(n-1).",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, required, optional=()):
        cmd = sub.add_parser(name, help=help, allow_abbrev=False)
        cmd.set_defaults(handler=handler)
        for flag in required:
            cmd.add_argument(flag, required=True, **_OPTIONS[flag])
        for flag in (*optional, "--out"):
            cmd.add_argument(flag, **_OPTIONS[flag])
        return cmd

    command("sigma", cmd_sigma, "sample sigma_k along a branch (CSV)", ("--n", "--k"), _ETA_GRID)
    command("phase-diagram", cmd_phase_diagram, "all branches of the (eta, alpha) diagram (CSV)",
            ("--n",), _ETA_GRID)
    command("eta-star", cmd_eta_star, "fold point of a branch (JSON)", ("--n", "--k"))
    command("classify", cmd_classify, "stability verdict with witness (JSON)",
            ("--n", "--k", "--eta"), ("--alpha",))
    command("spectrum", cmd_spectrum, "discretized second-variation spectrum (JSON)",
            ("--n", "--k", "--eta"), ("--alpha", "--grid"))
    solve_m = command("solve-m", cmd_solve_m, "order-tensor fixed point from a seeded start (JSON)",
                      ("--n", "--alpha"), ("--seed",))
    solve_m.add_argument("--tol", type=float, default=1e-10,
                         help="Picard tolerance on the update norm (default %(default)s)")
    verify = command("verify", cmd_verify, "run the invariant check suite", (), ("--seed",))
    verify.add_argument("--tol", type=float, help="replaces every check's own tolerance")
    verify.add_argument(
        "--quad-order", type=int, default=DEFAULT_ORDER,
        help="theta order of the quadrature-rule checks (default %(default)s); "
        "every other check runs the library as it ships",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
        _write(text, args.out)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
