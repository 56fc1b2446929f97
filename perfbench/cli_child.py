"""Run one onsager_ms CLI command with its layers traced.

    python3 perfbench/cli_child.py SPANS_OUT SUBCOMMAND [ARGS...]

Behaves like ``python -m onsager_ms.cli SUBCOMMAND ARGS...`` (same stdout,
same exit code) and writes the recorded spans and cache counters of the
process as JSON to SPANS_OUT.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402

import onsager_ms.cli as cli  # noqa: E402
from onsager_ms.quadrature import sphere_rule, theta_rule  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    recorder.current_job = 0
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
        sys.stdout.flush()
    theta, sphere = theta_rule.cache_info(), sphere_rule.cache_info()
    recorder.count("theta_rule.calls", theta.hits + theta.misses)
    recorder.count("theta_rule.misses", theta.misses)
    recorder.count("sphere_rule.misses", sphere.misses)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
