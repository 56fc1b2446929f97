import sys

import pytest

from onsager_ms import moments


@pytest.fixture
def moment_passes(monkeypatch):
    """The (n, k, eta, order) of every ``scaled_moments`` pass made while the
    test runs, counted in every library module that binds the function."""
    calls = []
    original = moments.scaled_moments

    def counted(params, eta, **kwargs):
        calls.append((params.n, params.k, float(eta), kwargs.get("order")))
        return original(params, eta, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "onsager_ms" and getattr(module, "scaled_moments", None) is original:
            monkeypatch.setattr(module, "scaled_moments", counted)
    return calls
