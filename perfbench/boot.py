"""Launch one ``repro.cli`` command for the benchmark.

Usage: ``python3 perfbench/boot.py <repro.cli arguments...>``

With ``PERFBENCH_TRACE_DIR`` set, the layer wrappers of
:mod:`perfbench.tracing` are installed first (role from
``PERFBENCH_ROLE``) and the process writes its spans there when it
exits; without it the command runs exactly as ``python -m repro.cli``.
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.dirname(here))
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:
        from perfbench.tracing import bootstrap

        bootstrap(trace_dir, os.environ.get("PERFBENCH_ROLE", "server"))
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
