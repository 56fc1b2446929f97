"""Smoke tests for the scripts under scripts/: each runs in process on a
small input and writes its files."""

import csv
import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_make_phase_diagrams(monkeypatch, tmp_path, capsys):
    run_script(monkeypatch, "make_phase_diagrams.py",
               "--n-values", "3", "--samples", "5", "--out-dir", str(tmp_path))
    with open(tmp_path / "phase_n3.csv", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    assert reader.fieldnames == ["k", "eta", "alpha", "stability"]  # the CLI's columns
    assert len(rows) == 2 * 5  # branches k = 1, 2
    for row in rows:
        tag, suffix = row["stability"], " reflected" if row["k"] == "2" else ""
        assert tag.endswith(suffix)
        assert tag.removesuffix(" reflected") in {"stable", "unstable", "marginal"}
    folds = json.loads((tmp_path / "folds.json").read_text())
    assert set(folds) == {"n=3,k=1"}
    assert folds["n=3,k=1"]["alpha_star"] == pytest.approx(6.731486396483349, rel=1e-9)
    assert "fold summary" in capsys.readouterr().out


def test_spectral_gap_study(monkeypatch, tmp_path):
    out = tmp_path / "gap" / "gap_study.csv"
    run_script(monkeypatch, "spectral_gap_study.py",
               "--n-values", "3", "--steps", "2", "--out", str(out))
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    for row in rows:
        assert int(row["kernel_dim"]) == 2
        assert float(row["gap"]) > 0.0
