"""CLI output as a checked-in fact: the stdout and exit code of a fixed set
of ``classify``, ``spectrum``, ``sigma``, ``phase-diagram`` and ``eta-star``
commands, compared byte for byte.

The set covers every kind of ``classify`` report (stable, an unstable
point with an Omega, a Xi and a b witness, the points next to a fold, the
isotropic point on both sides of n(n+2)/2), ``spectrum`` on both sides
of a fold, at k = 2, at n = 3..6 and off the branch, ``sigma`` inside and
at both edges of the moment domain, a phase diagram and a grid that
leaves the domain (exit 2, no output), and the folds of a low, an even,
a mirrored and a larger branch.  The expected bytes
live in ``tests/golden/``; ``python tests/test_golden.py`` rewrites them
from the ``onsager_ms`` on the path, and a change that rewrites them
states its drift.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; the recorded exit code and stdout sit in golden/.
COMMANDS = {
    "classify_stable": ["classify", "--n", "4", "--k", "1", "--eta", "5"],
    "classify_omega_witness": ["classify", "--n", "5", "--k", "2", "--eta", "1.5"],
    "classify_xi_witness": ["classify", "--n", "5", "--k", "2", "--eta", "-1.5"],
    "classify_b_witness": ["classify", "--n", "4", "--k", "1", "--eta", "1.5"],
    "classify_mirror_b_witness": ["classify", "--n", "4", "--k", "3", "--eta", "-1.5"],
    "classify_mirror_omega_witness": ["classify", "--n", "4", "--k", "3", "--eta", "1.5"],
    "classify_at_fold": ["classify", "--n", "3", "--k", "1", "--eta", "2.178287974844521"],
    "classify_above_fold": ["classify", "--n", "3", "--k", "1", "--eta", "2.178287984844521"],
    "classify_below_fold": ["classify", "--n", "3", "--k", "1", "--eta", "2.178287964844521"],
    "classify_isotropic_below": ["classify", "--n", "4", "--k", "1", "--eta", "0", "--alpha", "11.5"],
    "classify_isotropic_at": ["classify", "--n", "4", "--k", "1", "--eta", "0", "--alpha", "12"],
    "classify_isotropic_above": ["classify", "--n", "4", "--k", "1", "--eta", "0", "--alpha", "12.5"],
    "spectrum_k1_above_fold": ["spectrum", "--n", "3", "--k", "1", "--eta", "3.5"],
    "spectrum_k1_below_fold": ["spectrum", "--n", "3", "--k", "1", "--eta", "1"],
    "spectrum_k1_negative": ["spectrum", "--n", "3", "--k", "1", "--eta", "-2", "--grid", "16"],
    "spectrum_k2": ["spectrum", "--n", "5", "--k", "2", "--eta", "1.5"],
    "spectrum_n3_k2": ["spectrum", "--n", "3", "--k", "2", "--eta", "-4", "--grid", "16"],
    "spectrum_n4_k2": ["spectrum", "--n", "4", "--k", "2", "--eta", "-1", "--grid", "16"],
    "spectrum_n4_grid16": ["spectrum", "--n", "4", "--k", "1", "--eta", "5", "--grid", "16"],
    "spectrum_n5_k4": ["spectrum", "--n", "5", "--k", "4", "--eta", "-7", "--grid", "16"],
    "spectrum_n6_k1": ["spectrum", "--n", "6", "--k", "1", "--eta", "8", "--grid", "16"],
    "spectrum_n6_k3": ["spectrum", "--n", "6", "--k", "3", "--eta", "2", "--grid", "16"],
    "spectrum_isotropic": ["spectrum", "--n", "4", "--k", "1", "--eta", "0", "--alpha", "10", "--grid", "16"],
    "spectrum_bulk_kernel": ["spectrum", "--n", "4", "--k", "1", "--eta", "2", "--alpha", "1e9", "--grid", "16"],
    "spectrum_unresolved": ["spectrum", "--n", "3", "--k", "1", "--eta", "600", "--grid", "8"],
    "sigma_n5_k2": ["sigma", "--n", "5", "--k", "2", "--eta-min", "-10", "--eta-max", "30", "--samples", "21"],
    "sigma_domain_edges": ["sigma", "--n", "3", "--k", "1", "--eta-min", "-700", "--eta-max", "700", "--samples", "9"],
    "phase_diagram_n5": ["phase-diagram", "--n", "5", "--samples", "41"],
    "phase_diagram_outside_domain": ["phase-diagram", "--n", "4", "--eta-min", "-701", "--eta-max", "0", "--samples", "3"],
    "eta_star_n3_k1": ["eta-star", "--n", "3", "--k", "1"],
    "eta_star_even": ["eta-star", "--n", "6", "--k", "3"],
    "eta_star_mirrored": ["eta-star", "--n", "7", "--k", "5"],
    "eta_star_n12_k5": ["eta-star", "--n", "12", "--k", "5"],
}


def _run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process CLI run."""
    from onsager_ms.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode()


def test_cli_output_matches_the_golden_bytes():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert set(codes) == set(COMMANDS)
    differ = []
    for name, argv in COMMANDS.items():
        code, out = _run(argv)
        if code != codes[name] or out != (GOLDEN / f"{name}.out").read_bytes():
            differ.append(name)
    assert not differ, f"first differing command: {differ[0]} ({' '.join(COMMANDS[differ[0]])}); all: {differ}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    recorded = {}
    for name, argv in COMMANDS.items():
        recorded[name], out = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
