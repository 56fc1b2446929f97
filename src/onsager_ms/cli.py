"""Command-line front end emitting reproducible CSV and JSON artifacts.

Every number is printed with full round-trip precision, rows end with
LF, JSON keys are sorted, and all randomness flows through the --seed
default of 0, so identical invocations produce byte-identical files.

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


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ValueError(f"{args.command} requires {flags}")


def _eta_grid(args: argparse.Namespace) -> np.ndarray:
    if args.samples < 1:
        raise ValueError("samples must be at least 1")
    if not args.eta_min <= args.eta_max:
        raise ValueError("eta-min must not exceed eta-max")
    return np.linspace(args.eta_min, args.eta_max, args.samples)


def cmd_sigma(args: argparse.Namespace) -> str:
    _require(args, "n", "k")
    params = SphereParams(args.n, args.k)
    lines = ["eta,sigma,sigma_prime,stable"]
    for eta in _eta_grid(args):
        point = sample(params, float(eta))
        tag = branch_tag(params, float(eta))
        lines.append(f"{_fmt(point.eta)},{_fmt(point.sigma)},{_fmt(point.sigma_prime)},{tag}")
    return "\n".join(lines) + "\n"


def cmd_phase_diagram(args: argparse.Namespace) -> str:
    _require(args, "n")
    diagram = phase_diagram(args.n, _eta_grid(args))
    lines = ["k,eta,alpha,stability"]
    for branch in diagram.branches:
        for point, tag in zip(branch.samples, branch.tags):
            label = f"{tag} reflected" if branch.reflected else tag
            lines.append(f"{branch.k},{_fmt(point.eta)},{_fmt(point.sigma)},{label}")
    return "\n".join(lines) + "\n"


def cmd_eta_star(args: argparse.Namespace) -> str:
    _require(args, "n", "k")
    star = find_eta_star(SphereParams(args.n, args.k))
    return _json(
        {"n": args.n, "k": args.k, "eta_star": star.eta_star, "alpha_star": star.alpha_star}
    )


def cmd_classify(args: argparse.Namespace) -> str:
    _require(args, "n", "k", "eta")
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
    return _json(payload)


def cmd_spectrum(args: argparse.Namespace) -> str:
    _require(args, "n", "k", "eta")
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
    return _json(payload)


def cmd_solve_m(args: argparse.Namespace) -> str:
    _require(args, "n", "alpha")
    rng = np.random.default_rng(args.seed)
    initial = OrderTensor.random_unit(args.n, rng)
    tol = 1e-10 if args.tol is None else args.tol
    result = solve_fixed_point(args.n, args.alpha, initial, tol=tol)
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
    return _json(payload)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onsager-ms",
        description="Critical points and stability of the Onsager model "
        "with Maier-Saupe interaction on S^(n-1).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, help="ambient dimension")
    common.add_argument("--k", type=int, help="branch index (1..n-1)")
    common.add_argument("--eta", type=float, help="order parameter")
    common.add_argument("--alpha", type=float, help="interaction strength")
    common.add_argument("--grid", type=int, default=64, help="spectral grid size")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--eta-min", type=float, default=-10.0, dest="eta_min")
    common.add_argument("--eta-max", type=float, default=30.0, dest="eta_max")
    common.add_argument("--samples", type=int, default=401)
    common.add_argument("--tol", type=float, default=None, help="tolerance override")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sigma", parents=[common], help="sample sigma_k along a branch (CSV)")
    sub.add_parser("phase-diagram", parents=[common], help="all branches of the (eta, alpha) diagram (CSV)")
    sub.add_parser("eta-star", parents=[common], help="fold point of a branch (JSON)")
    sub.add_parser("classify", parents=[common], help="stability verdict with witness (JSON)")
    sub.add_parser("spectrum", parents=[common], help="discretized second-variation spectrum (JSON)")
    sub.add_parser("solve-m", parents=[common], help="order-tensor fixed point from a seeded start (JSON)")
    verify = sub.add_parser("verify", parents=[common], help="run the invariant check suite")
    verify.add_argument(
        "--quad-order", type=int, default=DEFAULT_ORDER, dest="quad_order",
        help="theta order of the quadrature-rule checks (default %(default)s; "
        "rules above 128 lose digits); every other check runs the library as it ships",
    )
    return parser


_HANDLERS = {
    "sigma": cmd_sigma,
    "phase-diagram": cmd_phase_diagram,
    "eta-star": cmd_eta_star,
    "classify": cmd_classify,
    "spectrum": cmd_spectrum,
    "solve-m": cmd_solve_m,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            text, code = cmd_verify(args)
            _write(text, args.out)
            return code
        _write(_HANDLERS[args.command](args), args.out)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
