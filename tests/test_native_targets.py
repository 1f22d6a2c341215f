"""The loader's instruction-set target choice for the compiled kernels."""

from __future__ import annotations

import pytest

from repro import _native
from repro.tmalign import _dpnative

V4 = _native._TARGET_FLAGS["arch=x86-64-v4"]


@pytest.mark.parametrize("flags, targets", [
    (V4, ["arch=x86-64-v4", "fma", "default"]),
    (V4 - {"avx512vl"}, ["fma", "default"]),
    ({"avx", "fma", "sse4_2"}, ["fma", "default"]),
    ({"avx", "avx2"}, ["default"]),
    (set(), ["default"]),
])
def test_targets_the_cpu_runs_best_first(monkeypatch, flags, targets):
    monkeypatch.setattr(_native, "_cpu_flags", lambda: frozenset(flags))
    assert _native.cpu_targets() == targets


def test_every_target_is_checked_and_ends_in_default():
    assert set(_native.TARGETS) == set(_native._TARGET_FLAGS)
    assert _native.TARGETS[-1] == "default"
    assert _native._target_args("default") == _native._target_args(None) == []
    assert _native._target_args("fma") == ['-DREPRO_TARGET="fma"']


def test_only_the_avx512_target_names_its_instructions():
    # the TM-align kernel's explicit AVX-512 term rows compile under it
    assert _native._target_args("arch=x86-64-v4") == [
        '-DREPRO_TARGET="arch=x86-64-v4"', "-DREPRO_AVX512"
    ]
    assert "REPRO_AVX512" in _dpnative._SOURCE


def test_a_target_that_does_not_build_falls_to_the_next(monkeypatch):
    tried = []

    def load_library(*args, target=None, **kwargs):
        tried.append(target)
        return None if target == "arch=x86-64-v4" else object()

    monkeypatch.setattr(_native, "_cpu_flags", lambda: V4)
    monkeypatch.setattr(_dpnative, "load_library", load_library)
    assert _dpnative.kernel_target() == "fma"
    assert tried == ["arch=x86-64-v4", "fma"]


def test_loaded_kernel_names_its_target():
    if _dpnative._library() is None:
        assert _dpnative.kernel_target() is None
    else:
        assert _dpnative.kernel_target() == _native.cpu_targets()[0]
