"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the ``onsager_ms`` modules from the
outside: the wrapper is bound in every ``onsager_ms`` module that holds the
original object, because ``from .moments import scaled_moments`` copies the
binding into the importing module.  Each call records one span (name, start,
end, parent span, job id) in flat arrays; nothing is written until the run
ends.  A layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, function) pairs whose calls become spans.  Every layer of the
# library is listed by its module name.
TRACED = (
    ("quadrature", "theta_rule"),
    ("quadrature", "build_weighted_quadrature"),
    ("quadrature", "sphere_rule"),
    ("quadrature", "build_sphere_quadrature"),
    ("moments", "scaled_moments"),
    ("sigma", "sigma_value"),
    ("sigma", "sigma_prime"),
    ("sigma", "find_eta_star"),
    ("sigma", "invert_alpha"),
    ("sigma", "phase_diagram"),
    ("stability", "classify"),
    ("stability", "branch_tag"),
    ("stability", "d_quantities"),
    ("stability", "quadratic_form_direct"),
    ("stability", "quadratic_form_decomposed"),
    ("stability", "random_smooth_perturbation"),
    ("spectral", "block_spectrum"),
    ("spectral", "full_spectrum"),
    ("spectral", "gap_estimate"),
    ("spectral", "isotropic_threshold"),
    ("equilibrium", "solve_fixed_point"),
    ("equilibrium", "euler_lagrange_residual"),
    ("verify", "run_all"),
    ("cli", "main"),
)

PHI = "stability.phi_eval"
SETUP_JOB = -1


class Recorder:
    """Span store plus the counters read from call results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.current_job = SETUP_JOB
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """A callable that records one span per call of ``fn``."""
        nid = self._id(name)
        stack = self._stack
        name_id, parent, job, start, end = self.name_id, self.parent, self.job, self.start, self.end
        perf = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(recorder.current_job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded onsager_ms module."""
        import onsager_ms  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items() if n == "onsager_ms" or n.startswith("onsager_ms.")]
        for short, attr in TRACED:
            home = sys.modules.get(f"onsager_ms.{short}")
            if home is None:
                continue
            original = getattr(home, attr)
            hook = _RESULT_HOOKS.get(attr)
            wrapped = self.wrap(f"{short}.{attr}", original, hook(self) if hook else None)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- reading the spans back ------------------------------------------

    def self_and_counts(self, jobs_only: bool = True):
        """Total self seconds and call count per span name, and the number
        of direct calls per (parent name, child name) pair."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        under: dict[tuple[str, str], int] = {}
        for i in range(n):
            if jobs_only and self.job[i] == SETUP_JOB:
                continue
            name = self.names[self.name_id[i]]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            p = self.parent[i]
            if p >= 0:
                key = (self.names[self.name_id[p]], name)
                under[key] = under.get(key, 0) + 1
        return self_s, calls, under

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "job": self.job[i],
                }) + "\n")

    def export(self) -> dict:
        return {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "job": list(self.job),
            "start": list(self.start),
            "end": list(self.end),
            "counters": self.counters,
        }

    def absorb(self, data: dict, job_id: int) -> None:
        """Append spans exported by another process, as job ``job_id``."""
        offset = len(self.start)
        for nid, par, job, t0, t1 in zip(data["name_id"], data["parent"], data["job"], data["start"], data["end"]):
            self.name_id.append(self._id(data["names"][nid]))
            self.parent.append(par + offset if par >= 0 else -1)
            self.job.append(SETUP_JOB if job == SETUP_JOB else job_id)
            self.start.append(t0)
            self.end.append(t1)
        for key, value in data["counters"].items():
            self.count(key, value)


def _fixed_point_hook(rec: Recorder):
    def hook(args, kwargs, result):
        from onsager_ms.equilibrium import sphere_order_for

        n, alpha = args[0], args[1]
        order = kwargs.get("order") or sphere_order_for(n, alpha)
        nodes = 2 * order ** (n - 1)
        rec.count("solve_fixed_point.iterations", result.iterations)
        # Each iteration, plus the final residual step, maps every node once.
        rec.count("solve_fixed_point.node_updates", nodes * (result.iterations + 1))
    return hook


def _sphere_build_hook(rec: Recorder):
    def hook(args, kwargs, result):
        rec.count("sphere_nodes_built", result.count)
        rec.count("sphere_bytes_built", result.points.nbytes + result.weights.nbytes)
    return hook


_RESULT_HOOKS = {
    "solve_fixed_point": _fixed_point_hook,
    "build_sphere_quadrature": _sphere_build_hook,
}
