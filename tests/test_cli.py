import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onsager_ms
from onsager_ms.cli import build_parser, main
from onsager_ms.quadrature import SphereParams
from onsager_ms.sigma import find_eta_star, sigma_value


# Each subcommand with its required options and valid values, its optional
# options, and a value for every option of the CLI.
MINIMAL_ARGV = {
    "sigma": ["sigma", "--n", "3", "--k", "1"],
    "phase-diagram": ["phase-diagram", "--n", "3"],
    "eta-star": ["eta-star", "--n", "3", "--k", "1"],
    "classify": ["classify", "--n", "3", "--k", "1", "--eta", "1"],
    "spectrum": ["spectrum", "--n", "3", "--k", "1", "--eta", "1"],
    "solve-m": ["solve-m", "--n", "3", "--alpha", "5"],
    "verify": ["verify"],
}
OPTIONAL = {
    "sigma": ["--eta-min", "--eta-max", "--samples"],
    "phase-diagram": ["--eta-min", "--eta-max", "--samples"],
    "eta-star": [],
    "classify": ["--alpha"],
    "spectrum": ["--alpha", "--grid"],
    "solve-m": ["--seed", "--tol"],
    "verify": ["--quad-order", "--tol", "--seed"],
}
SUBCOMMANDS = list(MINIMAL_ARGV)
OWN = {sub: set(MINIMAL_ARGV[sub][1::2]) | set(OPTIONAL[sub]) | {"--out"} for sub in SUBCOMMANDS}
OPTION_VALUES = {
    "--n": "4", "--k": "2", "--eta": "1.5", "--alpha": "7", "--eta-min": "-1", "--eta-max": "1",
    "--samples": "3", "--grid": "16", "--seed": "9", "--tol": "0.001", "--quad-order": "48",
}


def test_help_lists_exactly_the_options_read(capsys):
    for sub in SUBCOMMANDS:
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        flags = {word.rstrip(",") for word in capsys.readouterr().out.split() if word.startswith("--")}
        assert flags == OWN[sub] | {"--help"}


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_parser_defaults():
    """Each default is read from the subcommand that owns the option."""
    parse = build_parser().parse_args
    for argv in (["sigma", "--n", "3", "--k", "1"], ["phase-diagram", "--n", "3"]):
        args = parse(argv)
        assert (args.eta_min, args.eta_max, args.samples) == (-10.0, 30.0, 401)
    assert parse(["classify", "--n", "3", "--k", "1", "--eta", "1"]).alpha is None
    args = parse(["spectrum", "--n", "3", "--k", "1", "--eta", "1"])
    assert (args.alpha, args.grid) == (None, 64)
    args = parse(["solve-m", "--n", "3", "--alpha", "5"])
    assert (args.seed, args.tol) == (0, 1e-10)
    args = parse(["verify"])
    assert (args.seed, args.tol, args.quad_order) == (0, None, 128)
    for sub in SUBCOMMANDS:
        assert parse(MINIMAL_ARGV[sub]).out is None


def test_sigma_csv_shape(tmp_path):
    code, raw = run(tmp_path, "sigma", "--n", "3", "--k", "1",
                    "--eta-min", "-2", "--eta-max", "2", "--samples", "5")
    assert code == 0
    text = raw.decode()
    lines = text.splitlines()
    assert lines[0] == "eta,sigma,sigma_prime,stable"
    assert len(lines) == 6
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    row = lines[4].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == pytest.approx(sigma_value(SphereParams(3, 1), 1.0), rel=1e-15)
    assert row[3] in ("stable", "unstable", "marginal")


def test_sigma_floats_are_full_precision(tmp_path):
    _, raw = run(tmp_path, "sigma", "--n", "3", "--k", "1",
                 "--eta-min", "0", "--eta-max", "0", "--samples", "1")
    value = raw.decode().splitlines()[1].split(",")[1]
    # 17 significant digits round-trip exactly.
    assert float(value) == sigma_value(SphereParams(3, 1), 0.0)


def test_sigma_deterministic(tmp_path):
    _, a = run(tmp_path, "sigma", "--n", "4", "--k", "2", "--samples", "9")
    _, b = run(tmp_path, "sigma", "--n", "4", "--k", "2", "--samples", "9")
    assert a == b


def test_phase_diagram_reflected_rows(tmp_path):
    code, raw = run(tmp_path, "phase-diagram", "--n", "4",
                    "--eta-min", "-1", "--eta-max", "1", "--samples", "3")
    assert code == 0
    lines = raw.decode().splitlines()
    assert lines[0] == "k,eta,alpha,stability"
    ks = {row.split(",")[0] for row in lines[1:]}
    assert ks == {"1", "2", "3"}
    for row in lines[1:]:
        k, eta, alpha, stability = row.split(",")
        if k == "3":
            assert stability.endswith(" reflected")
        else:
            assert " " not in stability


def test_phase_diagram_beyond_eight(tmp_path):
    code, raw = run(tmp_path, "phase-diagram", "--n", "9",
                    "--eta-min", "-1", "--eta-max", "1", "--samples", "3")
    assert code == 0
    assert {row.split(",")[0] for row in raw.decode().splitlines()[1:]} == {str(k) for k in range(1, 9)}


def test_phase_diagram_small_n_exits_2(tmp_path, capsys):
    code, raw = run(tmp_path, "phase-diagram", "--n", "1", "--samples", "3")
    assert (code, raw) == (2, b"")
    assert "need n >= 3, got n=1" in capsys.readouterr().err


def test_eta_star_json(tmp_path):
    code, raw = run(tmp_path, "eta-star", "--n", "3", "--k", "1")
    assert code == 0
    data = json.loads(raw)
    assert sorted(data) == ["alpha_star", "eta_star", "k", "n"]
    star = find_eta_star(SphereParams(3, 1))
    assert data["eta_star"] == star.eta_star
    assert data["alpha_star"] == star.alpha_star
    assert raw.endswith(b"\n")


def _run_python(script: str) -> subprocess.CompletedProcess:
    src = str(Path(onsager_ms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)


def _scipy_modules(names) -> list[str]:
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


def test_import_floor(tmp_path):
    """Importing the CLI loads no scipy module, and neither does a fold search
    (eta-star) or a stability verdict (classify): the runtime is numpy only."""
    script = (
        "import json, sys\n"
        "import onsager_ms.cli as cli\n"
        "imported = sorted(sys.modules)\n"
        f"code = cli.main(['eta-star', '--n', '5', '--k', '2', '--out', {str(tmp_path / 'star.json')!r}])\n"
        "after_fold = sorted(sys.modules)\n"
        f"code += cli.main(['classify', '--n', '5', '--k', '2', '--eta', '3', '--out', {str(tmp_path / 'c.json')!r}])\n"
        "print(json.dumps([code, imported, after_fold, sorted(sys.modules)]))\n"
    )
    code, imported, after_fold, after_classify = json.loads(_run_python(script).stdout)
    assert code == 0
    assert json.loads((tmp_path / "star.json").read_text())["eta_star"] == find_eta_star(SphereParams(5, 2)).eta_star
    assert json.loads((tmp_path / "c.json").read_text())["classification"] == "Unstable"
    assert "onsager_ms.cli" in imported and "numpy" in imported
    assert _scipy_modules(imported) == []
    assert _scipy_modules(after_fold) == []
    assert _scipy_modules(after_classify) == []


def test_runs_where_scipy_cannot_be_imported(tmp_path):
    """With every ``import scipy`` made to fail, classify, spectrum, verify and
    the constrained block of gap_estimate still succeed."""
    script = (
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy\n"
        "    raise SystemExit('scipy imported')\n"
        "except ImportError:\n"
        "    pass\n"
        "import onsager_ms.cli as cli\n"
        "from onsager_ms import SphereParams, gap_estimate\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [\n"
        "    cli.main(['classify', '--n', '4', '--k', '1', '--eta', '6', '--out', out + '/c.json']),\n"
        "    cli.main(['spectrum', '--n', '4', '--k', '2', '--eta', '1', '--grid', '16', '--out', out + '/s.json']),\n"
        "    cli.main(['verify', '--quad-order', '48', '--out', out + '/v.txt']),\n"
        "]\n"
        "gap = gap_estimate(SphereParams(3, 1), 8.0, grid_size=16)\n"
        "print(json.dumps([codes, gap, sorted(sys.modules)]))\n"
    )
    codes, gap, modules = json.loads(_run_python(script).stdout)
    assert codes == [0, 0, 0]
    assert _scipy_modules(modules) == []
    assert json.loads((tmp_path / "c.json").read_text())["classification"] == "Stable"
    assert json.loads((tmp_path / "s.json").read_text())["kernel_dim"] == 4
    assert (tmp_path / "v.txt").read_text().splitlines()[-1] == "20/20 checks passed"
    assert np.isfinite(gap)


def test_classify_stable_json(tmp_path):
    star = find_eta_star(SphereParams(3, 1)).eta_star
    code, raw = run(tmp_path, "classify", "--n", "3", "--k", "1", "--eta", str(star + 1.0))
    assert code == 0
    data = json.loads(raw)
    assert data["classification"] == "Stable"
    assert data["witness"] is None
    assert len(data["d_quantities"]) == 3


def test_classify_unstable_witness_structure(tmp_path):
    code, raw = run(tmp_path, "classify", "--n", "5", "--k", "2", "--eta", "2.0")
    assert code == 0
    data = json.loads(raw)
    assert data["classification"] == "Unstable"
    assert data["witness_value"] < 0
    witness = data["witness"]
    assert sorted(witness) == ["b", "coefficients", "theta"]
    assert len(witness["theta"]) == 128
    assert len(witness["b"]) == 128
    for key, vals in witness["coefficients"].items():
        family, rest = key.split("(")
        assert family in ("Omega_A", "Omega_B", "Xi_A", "Xi_B", "Theta")
        assert len(vals) == 128


def test_classify_isotropic_requires_alpha(tmp_path, capsys):
    code, _ = run(tmp_path, "classify", "--n", "4", "--k", "1", "--eta", "0")
    assert code == 2
    for alpha in ("-5", "0"):
        code, raw = run(tmp_path, "classify", "--n", "4", "--k", "1", "--eta", "0", "--alpha", alpha)
        assert code == 2 and raw == b""
        assert "alpha must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("sigma", "--n", "3", "--k", "1", "--samples", "0"), "samples must be at least 1"),
    (("phase-diagram", "--n", "3", "--eta-min", "3", "--eta-max", "1"), "eta-min must not exceed eta-max"),
    (("verify", "--quad-order", "1"), "quad_order must be at least 2"),
])
def test_bad_option_values_exit_2(tmp_path, capsys, argv, message):
    assert run(tmp_path, *argv) == (2, b"")
    assert message in capsys.readouterr().err


def test_runtime_error_exits_1(tmp_path, capsys):
    """A grid too coarse for the weight is a RuntimeError of the library:
    exit code 1, the message on stderr and no output."""
    assert run(tmp_path, "spectrum", "--n", "3", "--k", "1", "--eta", "50", "--grid", "8") == (1, b"")
    assert "increase grid_size" in capsys.readouterr().err


def test_spectrum_json(tmp_path):
    code, raw = run(tmp_path, "spectrum", "--n", "3", "--k", "1", "--eta", "3.5",
                    "--grid", "16")
    assert code == 0
    data = json.loads(raw)
    assert data["kernel_dim"] == 2
    assert data["gap"] > 0
    assert set(data["blocks"]) == {"Theta", "Xi_A", "Xi_B", "b"}
    for block in data["blocks"].values():
        assert len(block["eigenvalues"]) == len(block["closed_form"])
    assert data["eigenvalues"] == sorted(data["eigenvalues"])


def test_solve_m_deterministic_and_consistent(tmp_path):
    code, a = run(tmp_path, "solve-m", "--n", "3", "--alpha", "20", "--seed", "3")
    assert code == 0
    _, b = run(tmp_path, "solve-m", "--n", "3", "--alpha", "20", "--seed", "3")
    assert a == b
    data = json.loads(a)
    assert data["converged"]
    assert data["residual"] <= 1e-8
    tensor = np.array(data["tensor"])
    assert np.allclose(tensor, tensor.T)
    assert abs(np.trace(tensor)) < 1e-10
    clusters = data["clusters"]
    assert clusters["count"] == 2


def test_solve_m_beyond_six_and_past_the_contour(tmp_path, capsys):
    code, raw = run(tmp_path, "solve-m", "--n", "8", "--alpha", "100")
    assert code == 0
    data = json.loads(raw)
    assert data["converged"]
    assert data["clusters"]["count"] == 2
    assert main(["solve-m", "--n", "21", "--alpha", "300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3 <= n <= 20" in captured.err


def test_solve_m_below_two_dimensions_exits_2(capsys):
    for n in ("1", "0"):
        assert main(["solve-m", "--n", n, "--alpha", "5"]) == 2
        assert f"needs n >= 2, got n={n}" in capsys.readouterr().err


def test_bad_k_is_usage_error(tmp_path):
    code, _ = run(tmp_path, "classify", "--n", "3", "--k", "5", "--eta", "1")
    assert code == 2


def test_unwritable_out_is_io_error():
    code = main(["sigma", "--n", "3", "--k", "1", "--out", "/nonexistent-dir/x.csv"])
    assert code == 2


def test_verify_default_passes(tmp_path):
    code, raw = run(tmp_path, "verify")
    assert code == 0
    text = raw.decode()
    assert "20/20 checks passed" in text
    assert text.count("PASS") == 20
    assert "FAIL" not in text


def test_verify_records_a_crashed_check(tmp_path, monkeypatch):
    """A check that raises is a failed check, not a crashed run: the battery
    still returns all 20 results, and ``verify`` prints FAIL and exits 1."""
    from onsager_ms import verify

    checks = list(verify._CHECKS)
    slot = checks.index(verify._check_sigma_reflection)

    def crash(cfg):
        raise RuntimeError("boom")

    crash.__name__ = checks[slot].__name__
    checks[slot] = crash
    monkeypatch.setattr(verify, "_CHECKS", tuple(checks))
    results = verify.run_all()
    assert len(results) == 20
    crashed = results[slot]
    assert crashed.name == "sigma_reflection"
    assert (crashed.passed, crashed.residual, crashed.detail) == (False, np.inf, "RuntimeError: boom")
    assert [r.passed for r in results].count(False) == 1
    code, raw = run(tmp_path, "verify")
    assert code == 1
    lines = raw.decode().splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL  sigma_reflection         residual=inf  tol=nan  (RuntimeError: boom)"
    ]
    assert lines[-1] == "19/20 checks passed"


def test_verify_order_four_fails(tmp_path):
    code, raw = run(tmp_path, "verify", "--quad-order", "4")
    assert code == 1
    text = raw.decode()
    assert "FAIL" in text
    assert "polynomial_exactness" in [
        line.split()[1] for line in text.splitlines() if line.startswith("FAIL")
    ]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_quad_order_belongs_to_verify(tmp_path, capsys, sub):
    """Each subcommand takes only the options it reads: --quad-order belongs
    to verify, and every other option it does not read is a usage error too."""
    foreign = [flag for flag in OPTION_VALUES if flag not in OWN[sub]]
    assert (sub == "verify") == ("--quad-order" not in foreign)
    for flag in foreign:
        with pytest.raises(SystemExit) as info:
            main([*MINIMAL_ARGV[sub], flag, OPTION_VALUES[flag], "--out", str(tmp_path / "out.txt")])
        assert info.value.code == 2
        # No abbreviations: a flag that prefixes one of the subcommand's own
        # options (--eta on sigma) is unrecognized like any other.
        assert f"unrecognized arguments: {flag} {OPTION_VALUES[flag]}" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("sub", [sub for sub in SUBCOMMANDS if MINIMAL_ARGV[sub][1:]])
def test_missing_required_option_is_usage_error(tmp_path, capsys, sub):
    argv = MINIMAL_ARGV[sub]
    for i in range(1, len(argv), 2):
        with pytest.raises(SystemExit) as info:
            main([*argv[:i], *argv[i + 2:], "--out", str(tmp_path / "out.txt")])
        assert info.value.code == 2
        assert f"the following arguments are required: {argv[i]}" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("sub", ["sigma", "phase-diagram"])
def test_non_finite_eta_range_exits_2(tmp_path, capsys, sub):
    for flag, value in (("--eta-min", "nan"), ("--eta-max", "nan"), ("--eta-min", "-inf"), ("--eta-max", "inf")):
        code, raw = run(tmp_path, *MINIMAL_ARGV[sub], f"{flag}={value}")
        assert (code, raw) == (2, b"")
        assert "eta-min and eta-max must be finite" in capsys.readouterr().err


def test_verify_order_eight_with_loose_tol(tmp_path):
    code, raw = run(tmp_path, "verify", "--quad-order", "8", "--tol", "1e-1")
    assert code == 0
    assert "20/20 checks passed" in raw.decode()


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    """An infinite --tol would pass every check, so it is a usage error."""
    assert run(tmp_path, "verify", "--quad-order", "4", "--tol", tol) == (2, b"")
    assert "tol must be finite and positive" in capsys.readouterr().err


def test_verify_order_200_passes(tmp_path):
    code, raw = run(tmp_path, "verify", "--quad-order", "200")
    assert code == 0
    assert raw.decode().splitlines()[-1] == "20/20 checks passed"


@pytest.mark.parametrize("argv", [
    ["verify", "--quad", "4"],
    ["solve-m", "--n", "3", "--a", "5", "--s", "2"],
    ["classify", "--n", "3", "--k", "1", "--et", "1"],
])
def test_abbreviated_options_are_usage_errors(tmp_path, capsys, argv):
    """Each option has one spelling: argparse's prefix matching is off."""
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path / "out.txt")])
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_classify_outside_the_domain_exits_2(capsys):
    messages = []
    for eta in ("10000", "-10000"):
        assert main(["classify", "--n", "5", "--k", "1", "--eta", eta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        messages.append(captured.err)
    assert messages[0] == messages[1]
    assert "moment domain" in messages[0]


def test_stdout_when_no_out(capsys):
    code = main(["eta-star", "--n", "3", "--k", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["n"] == 3
