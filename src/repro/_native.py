"""Build-on-first-use loader for the package's small C kernels.

Each kernel module ships its C source as a string.  The first process
that needs it compiles the source with the system C compiler and caches
the shared object in the user's temp directory, named by a digest of the
source and flags, so an edited kernel never loads a stale build.  Later
processes (farm workers, service shards) load the cached file.

A kernel may compile its hot functions for an instruction-set target
(:data:`TARGETS`): its loader tries the ones this CPU runs, best first
(:func:`cpu_targets`), and keeps the first that builds, with the target
in the compiler flags and so in the cache name.  A cold build thus
compiles one target, and a cache shared between hosts keeps one build
per target.

Anything going wrong — no compiler, sandboxed filesystem, a failed
``dlopen`` — returns ``None`` and the caller keeps its NumPy path.
Every kernel module also honours its own opt-out environment variable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from functools import lru_cache
from typing import Optional, Sequence

__all__ = ["load_library", "cpu_targets", "TARGETS"]

# -O3 vectorises the elementwise loops; -fno-math-errno lets sqrt compile
# to the instruction (errno is never read).  Neither flag changes a
# floating-point result; -ffp-contract=off keeps a*b+c two roundings.
_CC_ARGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

#: GCC ``target`` attributes a kernel's hot functions are built for, best
#: first; ``default`` is baseline code.
TARGETS = ("arch=x86-64-v4", "fma", "default")

# The /proc/cpuinfo flags each target's instructions need: x86-64-v4's
# AVX-512 subsets on top of the v3 and v2 levels, and FMA, which GCC
# encodes with AVX.
_X86_64_V3 = {
    "cx16", "lahf_lm", "popcnt", "pni", "sse4_1", "sse4_2", "ssse3",
    "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave",
}
_TARGET_FLAGS = {
    "arch=x86-64-v4": frozenset(
        _X86_64_V3 | {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"}
    ),
    "fma": frozenset({"avx", "fma"}),
    "default": frozenset(),
}


@lru_cache(maxsize=None)
def _cpu_flags() -> frozenset:
    """This CPU's feature flags as Linux reports them (after its own
    checks that the OS saves the registers); empty off x86-64 Linux."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return frozenset()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return frozenset(line.partition(":")[2].split())
    except OSError:
        pass
    return frozenset()


def cpu_targets() -> list:
    """The :data:`TARGETS` this CPU runs, best first."""
    flags = _cpu_flags()
    return [t for t in TARGETS if _TARGET_FLAGS[t] <= flags]


# A macro the preprocessor can test, for a target whose instructions a
# source names directly (intrinsics): REPRO_TARGET is a string to it.
_TARGET_MACROS = {"arch=x86-64-v4": "REPRO_AVX512"}


def _target_args(target: Optional[str]) -> list:
    if target in (None, "default"):
        return []
    macro = _TARGET_MACROS.get(target)
    return [f'-DREPRO_TARGET="{target}"', *([f"-D{macro}"] if macro else [])]


def _build_library(
    name: str, source: str, libs: Sequence[str], target: Optional[str]
) -> str:
    """Compile ``source`` into a cached shared object; returns its path."""
    args = [*_CC_ARGS, *_target_args(target)]
    flags = " ".join([*args, *libs])
    digest = hashlib.sha256((source + flags).encode()).hexdigest()[:16]
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
            [cc, *args, "-o", out, src, *libs],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # atomic publish so concurrent farm workers race benignly
        os.replace(out, lib_path)
    return lib_path


def load_library(
    name: str,
    source: str,
    disable_env: str,
    libs: Sequence[str] = (),
    target: Optional[str] = None,
) -> Optional[ctypes.CDLL]:
    """The compiled ``source`` as a ``ctypes.CDLL``, or None when unavailable.

    ``disable_env`` names the environment variable that, when set to any
    non-empty value, forces None (the NumPy fallback).  ``libs`` are
    extra linker arguments such as ``-lm``.  ``target`` (one of
    :data:`TARGETS`) defines ``REPRO_TARGET`` as that string for every
    target but ``default``, and ``REPRO_AVX512`` for ``arch=x86-64-v4``;
    the source decides what to compile for it.
    """
    if os.environ.get(disable_env):
        return None
    try:
        return ctypes.CDLL(_build_library(name, source, libs, target))
    except (OSError, subprocess.SubprocessError):
        return None
