"""Sweep the axial branches for several ambient dimensions and write one
phase-diagram CSV per n, in the format of ``onsager-ms phase-diagram``
(k,eta,alpha,stability), plus a JSON summary of the fold points.

Usage:
    python scripts/make_phase_diagrams.py --out-dir results/phase
"""

import argparse
import json
import pathlib

from onsager_ms.cli import main as cli_main
from onsager_ms.quadrature import SphereParams
from onsager_ms.sigma import find_eta_star


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-values", type=int, nargs="+", default=[3, 4, 5, 6])
    parser.add_argument("--eta-min", type=float, default=-10.0)
    parser.add_argument("--eta-max", type=float, default=30.0)
    parser.add_argument("--samples", type=int, default=401)
    parser.add_argument("--out-dir", type=pathlib.Path,
                        default=pathlib.Path("results/phase"))
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)

    folds = {}
    for n in args.n_values:
        path = args.out_dir / f"phase_n{n}.csv"
        # The CLI's phase-diagram CSV (k,eta,alpha,stability) is the one format.
        code = cli_main(["phase-diagram", "--n", str(n), "--eta-min", str(args.eta_min),
                         "--eta-max", str(args.eta_max), "--samples", str(args.samples),
                         "--out", str(path)])
        if code:
            raise SystemExit(code)
        print(f"n={n}: wrote {(n - 1) * args.samples} samples to {path}")
        for k in range(1, n // 2 + 1):
            star = find_eta_star(SphereParams(n, k))
            folds[f"n={n},k={k}"] = {
                "eta_star": star.eta_star,
                "alpha_star": star.alpha_star,
            }
            print(f"  fold k={k}: eta* = {star.eta_star:.12g}, "
                  f"alpha* = {star.alpha_star:.12g}")

    summary = args.out_dir / "folds.json"
    summary.write_text(json.dumps(folds, indent=2, sort_keys=True) + "\n")
    print(f"fold summary in {summary}")


if __name__ == "__main__":
    main()
