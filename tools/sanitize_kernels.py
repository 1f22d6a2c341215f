"""Run the compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

Builds both C kernels (TM-align's and the SW prefilter's) with the
loader's own flags plus ``-O1 -g -fsanitize=address,undefined
-fno-sanitize-recover=all``, loads that build in place of the cached
optimised one, runs the TM-align kernel's self-check, then pytest over
the given arguments (default: the native, batch and golden tests) in the
same process.  With ``--differential N`` it runs an N-pair
``tools/kernel_differential.py`` subset on that build instead of pytest.
Every sanitizer report aborts the process, so exit status 0 means none
was made.  The sanitizer runtimes must be preloaded::

    LD_PRELOAD="$(cc -print-file-name=libasan.so):$(cc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src python tools/sanitize_kernels.py
"""

import importlib.util
import os
import sys

import pytest

SANITIZE = (
    "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
)
TESTS = (
    "tests/test_tmalign_native.py",
    "tests/test_tmalign_batch.py",
    "tests/test_tmalign_golden.py",
)


def _load_native():
    """``repro._native`` without its package: importing ``repro`` imports
    ``repro.tmalign``, which loads the kernel and runs its self-check."""
    (root,) = importlib.util.find_spec("repro").submodule_search_locations
    spec = importlib.util.spec_from_file_location(
        "repro._native", os.path.join(root, "_native.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int | str:
    if "repro.tmalign" in sys.modules:
        return "repro.tmalign was imported before the sanitizer flags were set"
    _native = _load_native()
    _native._CC_ARGS = (*_native._CC_ARGS, *SANITIZE)
    from repro.seqalign import _swnative
    from repro.tmalign import _dpnative

    if _swnative.load_sw_kernel() is None:
        return "the SW kernel did not load"
    if not _dpnative.self_check():
        return "the TM-align kernel's self-check switched the native paths off"
    if argv[:1] == ["--differential"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import kernel_differential

        return kernel_differential.main(["--pairs", *argv[1:2]])
    return pytest.main(["-x", "-q", "-p", "no:cacheprovider", *(argv or TESTS)])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
