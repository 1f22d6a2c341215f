"""The shared-memory dataset plane: layout, lifecycle, fallback.

The plane's contract is airtight teardown and content fidelity: an
attached view must reproduce every chain bit-for-bit, a stale or
foreign segment must refuse to attach, a dead *worker* must never
unlink the live plane under the owner, and any shared-memory failure
must degrade to the pickling path rather than error out.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.datasets.registry import Dataset
from repro.parallel import shmplane
from repro.parallel.shmplane import (
    DatasetPlane,
    PlaneUnavailable,
    ShmDataset,
    plane_fingerprint,
    plane_for,
)
from repro.structure.model import Chain


def _shm_supported() -> bool:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    seg.close()
    seg.unlink()
    return True


pytestmark = pytest.mark.skipif(
    not _shm_supported(), reason="POSIX shared memory unavailable"
)


def _tiny_dataset(name: str = "plane-unit", n: int = 4) -> Dataset:
    rng = np.random.default_rng(hash(name) % (2**32))
    chains = []
    for k in range(n):
        length = 10 + 3 * k
        coords = np.cumsum(rng.normal(0, 1, (length, 3)), axis=0) * 2.0
        seq = "".join("ACDEFGHIKLMNPQRSTVWY"[int(x) % 20]
                      for x in rng.integers(0, 20, length))
        chains.append(Chain(f"{name}_{k}", coords, seq,
                            family="fam" if k % 2 else None))
    return Dataset(name, tuple(chains), "shmplane unit fixture")


class TestRoundTrip:
    def test_attach_reproduces_every_chain_exactly(self, ck34_mini):
        with DatasetPlane.create(ck34_mini) as plane:
            view = plane.attach()
            try:
                assert len(view) == len(ck34_mini)
                assert view.name == ck34_mini.name
                assert view.total_residues == sum(len(c) for c in ck34_mini)
                for want, got in zip(ck34_mini, view):
                    assert got.name == want.name
                    assert got.family == want.family
                    assert got.sequence == want.sequence
                    # bit equality, not tolerance: the farm's whole
                    # contract is that the plane is invisible in numbers
                    assert got.coords.tobytes() == want.coords.tobytes()
                    assert got.secondary == want.secondary
            finally:
                view.detach()

    def test_views_are_zero_copy_and_read_only(self, ck34_mini):
        with DatasetPlane.create(ck34_mini) as plane:
            view = plane.attach()
            try:
                chain = view[0]
                assert not chain.coords.flags.writeable
                assert not chain.coords.flags.owndata  # view, not copy
                with pytest.raises((ValueError, RuntimeError)):
                    chain.coords[0, 0] = 1.0
                # lazy materialization is cached
                assert view[0] is chain
            finally:
                view.detach()

    def test_by_name_and_missing_chain(self, ck34_mini):
        with DatasetPlane.create(ck34_mini) as plane:
            view = plane.attach()
            try:
                want = ck34_mini[3]
                assert view.by_name(want.name).sequence == want.sequence
                with pytest.raises(KeyError, match="no chain named"):
                    view.by_name("does-not-exist")
            finally:
                view.detach()

    def test_worker_spec_is_tiny(self, ck34_mini):
        with DatasetPlane.create(ck34_mini) as plane:
            spec = plane.worker_spec()
            assert spec[0] == "plane"
            # the whole point: initializer payload is ~100 bytes, not MBs
            assert len(pickle.dumps(spec)) < 512


class TestGenerationGuard:
    def test_fingerprint_mismatch_refuses_stale_attach(self, ck34_mini):
        with DatasetPlane.create(ck34_mini) as plane:
            with pytest.raises(PlaneUnavailable, match="stale attach"):
                ShmDataset.attach(plane.name, fingerprint="0" * 64)

    def test_foreign_segment_refused(self):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=64)
        try:
            seg.buf[:8] = b"NOTAPLAN"
            with pytest.raises(PlaneUnavailable, match="not a dataset plane"):
                ShmDataset.attach(seg.name)
        finally:
            seg.close()
            seg.unlink()

    def test_missing_segment_raises_unavailable(self):
        with pytest.raises(PlaneUnavailable, match="cannot attach"):
            ShmDataset.attach("psc-no-such-segment")

    def test_fingerprint_keys_on_chain_names(self):
        # MODEL mode seeds jitter from chain names: same coordinates
        # under different names must not share a plane generation
        ds_a = _tiny_dataset("fpname-a")
        renamed = tuple(
            Chain(f"other_{k}", c.coords.copy(), c.sequence, family=c.family)
            for k, c in enumerate(ds_a)
        )
        ds_b = Dataset(ds_a.name, renamed, ds_a.description)
        assert plane_fingerprint(ds_a) != plane_fingerprint(ds_b)


class TestLifecycle:
    def test_unlink_is_idempotent_and_kills_attach(self):
        plane = DatasetPlane.create(_tiny_dataset("life-a"))
        name = plane.name
        assert plane.live
        plane.unlink()
        assert not plane.live
        plane.unlink()  # second call must be a silent no-op
        with pytest.raises(PlaneUnavailable):
            ShmDataset.attach(name)

    def test_context_manager_unlinks_on_exception(self):
        name = None
        with pytest.raises(RuntimeError, match="boom"):
            with DatasetPlane.create(_tiny_dataset("life-b")) as plane:
                name = plane.name
                raise RuntimeError("boom")
        with pytest.raises(PlaneUnavailable):
            ShmDataset.attach(name)

    def test_oversized_dataset_degrades_to_unavailable(self):
        ds = _tiny_dataset("life-c", n=1)
        huge = Dataset(ds.name, ds.chains, ds.description)
        real_len = Chain.__len__
        try:
            Chain.__len__ = lambda self: 2**31  # overflow the int32 table
            with pytest.raises(PlaneUnavailable, match="int32"):
                DatasetPlane.create(huge, fingerprint="f" * 64)
        finally:
            Chain.__len__ = real_len


class TestPlaneCache:
    """The module front end.  It caches nothing: every ``plane_for`` is a
    fresh plane its caller unlinks, and ``shutdown_planes`` reaps the
    ones still live."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        shmplane.shutdown_planes()
        yield
        shmplane.shutdown_planes()

    def test_plane_for_publishes_a_fresh_plane_per_call(self):
        ds = _tiny_dataset("cache-a")
        first = plane_for(ds)
        second = plane_for(ds)
        assert first is not None and second is not None
        assert first.name != second.name
        assert first.fingerprint == second.fingerprint
        first.unlink()
        view = second.attach()  # one caller's unlink leaves the other's
        try:
            assert len(view) == len(ds)
        finally:
            view.detach()
            second.unlink()

    def test_shutdown_unlinks_everything(self):
        plane = plane_for(_tiny_dataset("cache-shutdown"))
        assert plane is not None
        shmplane.shutdown_planes()
        assert not plane.live
        with pytest.raises(PlaneUnavailable):
            ShmDataset.attach(plane.name)

    def test_unplanable_dataset_returns_none(self, monkeypatch):
        def refuse(cls, dataset, fingerprint=None):
            raise PlaneUnavailable("no /dev/shm in this test")

        monkeypatch.setattr(DatasetPlane, "create", classmethod(refuse))
        assert plane_for(_tiny_dataset("cache-refuse")) is None


def _attach_and_die(name: str, fingerprint: str) -> None:
    """Child body: attach the plane, then die without any cleanup."""
    ShmDataset.attach(name, fingerprint=fingerprint)
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerDeathSafety:
    def test_killed_attacher_does_not_unlink_live_plane(self, ck34_mini):
        """A SIGKILLed worker must not tear the plane down under the
        owner (the resource tracker would, if attaches were tracked)."""
        with DatasetPlane.create(ck34_mini) as plane:
            for method in ("fork", "spawn"):
                if method not in multiprocessing.get_all_start_methods():
                    continue
                ctx = multiprocessing.get_context(method)
                child = ctx.Process(
                    target=_attach_and_die,
                    args=(plane.name, plane.fingerprint),
                )
                child.start()
                child.join(timeout=60)
                assert child.exitcode == -signal.SIGKILL
                # the owner's plane must still be fully attachable
                view = plane.attach()
                try:
                    assert len(view) == len(ck34_mini)
                finally:
                    view.detach()

    def test_no_tracker_leak_warnings_on_interpreter_exit(self, tmp_path):
        """End-to-end in a fresh interpreter: create, attach from a
        killed child, unlink, exit — stderr must stay free of the
        resource tracker's 'leaked shared_memory' / KeyError noise."""
        script = tmp_path / "plane_exit_check.py"
        script.write_text(textwrap.dedent("""
            import multiprocessing, os, signal
            from repro.parallel.shmplane import DatasetPlane, ShmDataset, plane_for
            from tests.test_shmplane import _tiny_dataset

            def attach_and_die(name, fp):
                ShmDataset.attach(name, fingerprint=fp)
                os.kill(os.getpid(), signal.SIGKILL)

            if __name__ == "__main__":
                ds = _tiny_dataset("tracker-check")
                plane = plane_for(ds)
                assert plane is not None
                view = plane.attach()
                view.detach()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn")
                child = ctx.Process(
                    target=attach_and_die, args=(plane.name, plane.fingerprint))
                child.start()
                child.join(60)
                assert child.exitcode == -signal.SIGKILL
                plane.unlink()
                # second plane left for the atexit hook to reap
                leak = plane_for(_tiny_dataset("tracker-check-2"))
                assert leak is not None
                print("OK")
        """))
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), root,
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
