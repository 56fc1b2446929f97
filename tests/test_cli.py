import json

import numpy as np
import pytest

from onsager_ms.cli import build_parser, main
from onsager_ms.quadrature import SphereParams
from onsager_ms.sigma import find_eta_star, sigma_value


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_parser_defaults():
    args = build_parser().parse_args(["sigma", "--n", "3", "--k", "1"])
    assert args.quad_order == 128
    assert args.grid == 64
    assert args.seed == 0
    assert args.eta_min == -10.0
    assert args.eta_max == 30.0
    assert args.samples == 401
    assert args.tol is None
    assert args.out is None


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


def test_classify_stable_json(tmp_path):
    star = find_eta_star(SphereParams(3, 1)).eta_star
    code, raw = run(tmp_path, "classify", "--n", "3", "--k", "1", "--eta", str(star + 1.0))
    assert code == 0
    data = json.loads(raw)
    assert data["classification"] == "Stable"
    assert data["witness"] is None
    assert len(data["d_quantities"]) == 3


def test_classify_unstable_witness_structure(tmp_path):
    code, raw = run(tmp_path, "classify", "--n", "5", "--k", "2", "--eta", "2.0",
                    "--quad-order", "48")
    assert code == 0
    data = json.loads(raw)
    assert data["classification"] == "Unstable"
    assert data["witness_value"] < 0
    witness = data["witness"]
    assert sorted(witness) == ["b", "coefficients", "theta"]
    assert len(witness["theta"]) == 48
    assert len(witness["b"]) == 48
    for key, vals in witness["coefficients"].items():
        family, rest = key.split("(")
        assert family in ("Omega_A", "Omega_B", "Xi_A", "Xi_B", "Theta")
        assert len(vals) == 48


def test_classify_isotropic_requires_alpha(tmp_path, capsys):
    code, _ = run(tmp_path, "classify", "--n", "4", "--k", "1", "--eta", "0")
    assert code == 2
    for alpha in ("-5", "0"):
        code, raw = run(tmp_path, "classify", "--n", "4", "--k", "1", "--eta", "0", "--alpha", alpha)
        assert code == 2 and raw == b""
        assert "alpha must be positive" in capsys.readouterr().err


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


def test_verify_order_four_fails(tmp_path):
    code, raw = run(tmp_path, "verify", "--quad-order", "4")
    assert code == 1
    text = raw.decode()
    assert "FAIL" in text
    assert "polynomial_exactness" in [
        line.split()[1] for line in text.splitlines() if line.startswith("FAIL")
    ]


def test_verify_order_eight_with_loose_tol(tmp_path):
    code, raw = run(tmp_path, "verify", "--quad-order", "8", "--tol", "1e-1")
    assert code == 0
    assert "20/20 checks passed" in raw.decode()


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
