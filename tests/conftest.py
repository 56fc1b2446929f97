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
    """The (n, k, eta, order) of every ``scaled_moments`` pass made while the
    test runs, counted in every library module that binds the function;
    order is None where the caller left it at the default."""
    calls = []
    original = moments.scaled_moments

    def counted(params, eta, **kwargs):
        calls.append((params.n, params.k, float(eta), kwargs.get("order")))
        return original(params, eta, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "onsager_ms" and getattr(module, "scaled_moments", None) is original:
            monkeypatch.setattr(module, "scaled_moments", counted)
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
