"""Check every instruction-set target of the TM-align kernel bit for bit.

The loader builds the kernel's hot functions for the best target this CPU
runs (``repro._native.TARGETS``), so a host only ever exercises one of
them.  This tool builds the kernel for one named target at a time —
``default``, ``fma``, then ``arch=x86-64-v4`` — with ``-Wall -Wextra
-Werror`` added to the loader's flags, each in a fresh process that
narrows ``TARGETS`` to that target before the package loads the kernel
(the same pattern as ``tools/sanitize_kernels.py``).  On each build it
runs ``self_check``, the golden tests and a differential subset against
the NumPy path, whose results are computed once::

    PYTHONPATH=src python tools/check_kernel_targets.py [--pairs 300] [TARGET ...]

A target whose instructions this CPU lacks is skipped with the reason.
Exit status 0 means every target that ran matched.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import pytest

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)

import kernel_differential  # noqa: E402
from sanitize_kernels import _load_native  # noqa: E402

WARNINGS = ("-Wall", "-Wextra", "-Werror", "-Wno-psabi")
GOLDEN = "tests/test_tmalign_golden.py"


def check_one(target: str, pairs: int, reference: str) -> int | str:
    """In this process: the kernel built for ``target`` only, its
    self-check, the goldens and the differential against ``reference``."""
    if "repro.tmalign" in sys.modules:
        return "repro.tmalign was imported before the target was set"
    _native = _load_native()
    _native.TARGETS = (target,)
    _native._CC_ARGS = (*_native._CC_ARGS, *WARNINGS)
    from repro.tmalign import _dpnative

    loaded = _dpnative.kernel_target()
    if loaded != target:
        return f"{target}: the kernel did not build ({loaded} loaded)"
    if not _dpnative.self_check():
        return f"{target}: the self-check switched the native paths off"
    if pytest.main(["-x", "-q", "-p", "no:cacheprovider", GOLDEN]) != 0:
        return f"{target}: golden tests failed"
    native = kernel_differential.results(
        kernel_differential.subset(kernel_differential.pair_list(), pairs)
    )
    with open(reference) as fh:
        if kernel_differential.compare(native, json.load(fh)):
            return f"{target}: differs from the NumPy path"
    return 0


def main(argv: list[str]) -> int | str:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", default=None)
    parser.add_argument("--pairs", type=int, default=300)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        return check_one(args.targets[0], args.pairs, args.reference)
    _native = _load_native()
    targets = args.targets or list(reversed(_native.TARGETS))
    proc = kernel_differential.reference(args.pairs)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        return f"the NumPy reference run failed (exit {proc.returncode})"
    failed = []
    with tempfile.NamedTemporaryFile("w", suffix=".json") as ref:
        ref.write(out)
        ref.flush()
        for target in targets:
            missing = sorted(_native._TARGET_FLAGS[target] - _native._cpu_flags())
            if missing:
                print(f"== {target}: skipped, this CPU lacks {', '.join(missing)}")
                continue
            print(f"== {target}", flush=True)
            rc = subprocess.run([
                sys.executable, __file__, "--one", target,
                "--pairs", str(args.pairs), "--reference", ref.name,
            ]).returncode
            if rc != 0:
                failed.append(target)
    if failed:
        return f"targets that failed: {', '.join(failed)}"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
