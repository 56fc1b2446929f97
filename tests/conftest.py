import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onsager_ms
from onsager_ms import moments


@pytest.fixture
def moment_passes(monkeypatch):
    """The (n, k, eta, order) of every moment pass made while the test runs,
    one per eta: each scalar ``_moment_sums`` pass, which every
    ``scaled_moments`` call makes once, and each eta of a ``_moment_grid``
    pass, counted in every library module that binds the function.  order
    is the pass's theta order."""
    calls = []
    scalar, grid = moments._moment_sums, moments._moment_grid

    def counted(rule, eta):
        calls.append((rule.params.n, rule.params.k, float(eta), rule.order))
        return scalar(rule, eta)

    def counted_grid(rule, etas):
        params = rule.params
        calls.extend((params.n, params.k, float(e), rule.order) for e in etas)
        return grid(rule, etas)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "onsager_ms":
            continue
        if getattr(module, "_moment_sums", None) is scalar:
            monkeypatch.setattr(module, "_moment_sums", counted)
        if getattr(module, "_moment_grid", None) is grid:
            monkeypatch.setattr(module, "_moment_grid", counted_grid)
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
