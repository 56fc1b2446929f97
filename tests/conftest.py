import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import onsager_ms
from onsager_ms import moments
from onsager_ms.quadrature import DEFAULT_ORDER


@pytest.fixture
def moment_passes(monkeypatch):
    """The (n, k, eta, order) of every moment pass made while the test runs,
    one per eta: each ``scaled_moments`` pass and each eta of a lean
    ``_moment_sums`` pass, counted in every library module that binds the
    function.  order is the pass's theta order."""
    calls = []
    original, lean = moments.scaled_moments, moments._moment_sums

    def counted(params, eta, **kwargs):
        calls.append((params.n, params.k, float(eta), kwargs.get("order", DEFAULT_ORDER)))
        return original(params, eta, **kwargs)

    def counted_lean(rule, eta):
        params = rule.params
        calls.extend((params.n, params.k, float(e), rule.order) for e in np.atleast_1d(eta))
        return lean(rule, eta)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "onsager_ms":
            continue
        if getattr(module, "scaled_moments", None) is original:
            monkeypatch.setattr(module, "scaled_moments", counted)
        if getattr(module, "_moment_sums", None) is lean:
            monkeypatch.setattr(module, "_moment_sums", counted_lean)
    return calls


def outcomes(calls: list[str], namespace: dict) -> list[str]:
    """"returned", or the exception's type and message, of each expression."""
    out = []
    for call in calls:
        try:
            eval(call, namespace)
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        else:
            out.append("returned")
    return out


@pytest.fixture
def cold_and_warm():
    """Outcomes of ``calls``, Python expressions evaluated one after another
    after ``setup``: first in a fresh interpreter, where every cache is
    cold, then in this one after the ``warm`` expressions have run."""
    src = str(Path(onsager_ms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(setup: str, calls: list[str], warm: list[str]) -> tuple[list[str], list[str]]:
        script = "\n".join(
            (inspect.getsource(outcomes), setup, f"print(json.dumps(outcomes({calls!r}, globals())))")
        )
        child = subprocess.run(
            [sys.executable, "-c", "import json\n" + script], env=env, capture_output=True, text=True, check=True
        )
        namespace: dict = {}
        exec(setup, namespace)
        for call in warm:
            eval(call, namespace)
        return json.loads(child.stdout.splitlines()[-1]), outcomes(calls, namespace)

    return run
