"""Build-on-first-use loader for the package's small C kernels.

Each kernel module ships its C source as a string.  The first process
that needs it compiles the source with the system C compiler and caches
the shared object in the user's temp directory, named by a digest of the
source and flags, so an edited kernel never loads a stale build.  Later
processes (farm workers, service shards) load the cached file.

Anything going wrong — no compiler, sandboxed filesystem, a failed
``dlopen`` — returns ``None`` and the caller keeps its NumPy path.
Every kernel module also honours its own opt-out environment variable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional, Sequence

__all__ = ["load_library"]

# -O3 vectorises the elementwise loops; -fno-math-errno lets sqrt compile
# to the instruction (errno is never read).  Neither flag changes a
# floating-point result; -ffp-contract=off keeps a*b+c two roundings.
_CC_ARGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


def _build_library(name: str, source: str, libs: Sequence[str]) -> str:
    """Compile ``source`` into a cached shared object; returns its path."""
    flags = [*_CC_ARGS, *libs]
    digest = hashlib.sha256((source + " ".join(flags)).encode()).hexdigest()[:16]
    cache = os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}")
    lib_path = os.path.join(cache, f"{name}_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache, exist_ok=True)
    cc = os.environ.get("CC", "cc")
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src = os.path.join(tmp, f"{name}.c")
        out = os.path.join(tmp, f"{name}.so")
        with open(src, "w") as fh:
            fh.write(source)
        subprocess.run(
            [cc, *_CC_ARGS, "-o", out, src, *libs],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # atomic publish so concurrent farm workers race benignly
        os.replace(out, lib_path)
    return lib_path


def load_library(
    name: str, source: str, disable_env: str, libs: Sequence[str] = ()
) -> Optional[ctypes.CDLL]:
    """The compiled ``source`` as a ``ctypes.CDLL``, or None when unavailable.

    ``disable_env`` names the environment variable that, when set to any
    non-empty value, forces None (the NumPy fallback).  ``libs`` are
    extra linker arguments such as ``-lm``.
    """
    if os.environ.get(disable_env):
        return None
    try:
        return ctypes.CDLL(_build_library(name, source, libs))
    except (OSError, subprocess.SubprocessError):
        return None
