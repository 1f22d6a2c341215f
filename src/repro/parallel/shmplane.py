"""Zero-copy shared-memory dataset plane for the process-pool farm.

The paper's NoC design keeps structure data resident near the cores and
ships only work descriptors and scores across the fabric.  The farm's
historical equivalent shipped the *entire* coordinate dataset to every
worker by pickling it at pool construction — and again on every
fault-triggered pool rebuild.  This module lays the working dataset out
**once** in :class:`multiprocessing.shared_memory.SharedMemory` and hands
workers a segment name plus a content fingerprint; each worker
``attach()``\\ es and reconstructs chains as zero-copy NumPy views, so

* pool startup/rebuild cost no longer scales with dataset size (the
  initializer payload is a ~100-byte name tuple, not megabytes of
  coordinates), making worker restarts after injected faults near-free;
* under the ``spawn`` start method nothing is re-pickled per worker;
* secondary structure is assigned once on the owner and shared, instead
  of recomputed in every worker process.

Segment layout (one POSIX shared-memory segment per plane)::

    [0:8)      magic  b"PSCPLAN1"
    [8:24)     <QQ>   meta_offset, meta_length
    tab_off    int32[n_chains + 1]   residue offset table (prefix sums)
    coords_off float64[total, 3]     all chain coordinates, concatenated
    seq_off    uint8[total]          amino-acid codes (ASCII)
    ss_off     uint8[total]          secondary-structure codes (ASCII)
    meta_off   ASCII JSON            fingerprint, names, families, offsets

Every plane is stamped with the registry content fingerprint
(:func:`repro.runs.manifest.dataset_fingerprint`: dataset name, chain
names, sequences and coordinate bytes), so a worker can verify at attach
time that the segment it was pointed at is the generation the master
scheduled against — a stale plane raises :class:`PlaneUnavailable`
instead of silently serving wrong chains.

Lifecycle rules (the part that must be airtight):

* a plane lives exactly one farm drain: the drain creates it with
  :func:`plane_for` and unlinks it in its ``finally`` — normal end,
  :class:`~repro.parallel.farm.WorkerCrash`, early generator close and
  backend close alike.  Nothing caches a plane across drains: publishing
  one costs well under a millisecond even for all of ck34;
* the **owner** (master process) keeps every plane it has not unlinked
  yet in a locked process-level set, which :func:`shutdown_planes` and
  a module ``atexit`` hook empty — so SIGTERM or an interrupt that
  catches a drain mid-flight still removes its segment;
* **workers** attach *untracked* (``track=False`` on 3.13+, an explicit
  ``resource_tracker.unregister`` before that): a worker that dies —
  including a SIGKILL fault injection — must neither unlink the live
  plane under the owner nor spam "leaked shared_memory" warnings;
* every failure to create or attach degrades to :class:`PlaneUnavailable`
  so callers fall back to the pickling path (``/dev/shm`` unavailable,
  segment namespace exhausted, dataset too large for the int32 offset
  table) — results are bit-identical either way.  A stall duplicate
  that starts after its drain ended finds the segment gone; the worker
  answers with an error nobody reads, and stays usable;
* an owner killed by SIGKILL runs none of the above, so the first
  :func:`plane_for` in every process sweeps ``/dev/shm`` for
  ``psc<pid>-<pid namespace>-…`` segments of its own PID namespace
  whose owner pid is no longer alive (:func:`sweep_orphans`).
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import re
import struct
import threading
import weakref
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.structure.model import Chain

__all__ = [
    "DatasetPlane",
    "PlaneUnavailable",
    "ShmDataset",
    "plane_fingerprint",
    "plane_for",
    "shutdown_planes",
    "sweep_orphans",
]

_MAGIC = b"PSCPLAN1"
_HEADER = struct.Struct("<QQ")  # meta_offset, meta_length (after magic)

_SEGMENT_COUNTER = itertools.count()

#: every plane this process created and has not unlinked yet, so that
#: :func:`shutdown_planes` can reap one whose drain never reached its
#: ``finally``; drains on several threads create and unlink at once, and
#: the lock is re-entrant because a SIGTERM turned into ``SystemExit``
#: can unwind into another unlink on the thread that holds it
_LIVE: "set[DatasetPlane]" = set()
_LOCK = threading.RLock()


class PlaneUnavailable(RuntimeError):
    """Shared memory cannot serve this dataset; fall back to pickling."""


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


#: dataset object -> fingerprint; hashing megabytes of coordinates per
#: farm call would defeat the point of attaching, so the digest is
#: computed once per live Dataset instance
_FINGERPRINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def plane_fingerprint(dataset) -> str:
    """Content fingerprint stamped on a dataset's plane (cached per object).

    Reuses :func:`repro.runs.manifest.dataset_fingerprint` — dataset
    name, chain names, sequences and coordinate bytes — so the plane's
    generation is the same identity the durable run store already
    trusts for ``--resume``.  Chain *names* are part of it on purpose:
    MODEL mode seeds its deterministic jitter from name strings, so two
    datasets with identical coordinates but different names must not
    pass for each other at attach.
    """
    try:
        return _FINGERPRINTS[dataset]
    except (TypeError, KeyError):
        pass
    from repro.runs.manifest import dataset_fingerprint

    fp = dataset_fingerprint(dataset)
    try:
        _FINGERPRINTS[dataset] = fp
    except TypeError:  # unweakrefable stand-in (tests); just recompute
        pass
    return fp


def _attach_segment(name: str):
    """Open an existing segment without resource-tracker registration.

    Python's per-process resource tracker would otherwise (a) warn about
    "leaked" segments at interpreter shutdown and (b) *unlink* the plane
    when an attaching worker dies — destroying it under the owner and
    every sibling worker.  3.13+ has ``track=False``; earlier versions
    need the explicit unregister.
    """
    from multiprocessing import resource_tracker, shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        # Suppress the tracker's REGISTER for the duration of the attach
        # rather than unregistering afterwards: an owner re-attaching its
        # own segment must not cancel the registration its *create* made
        # (a later unlink would then double-unregister and the tracker
        # daemon logs a KeyError traceback).
        real_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = real_register


class DatasetPlane:
    """Owner-side handle of one shared-memory dataset layout.

    Create with :meth:`create` (or :func:`plane_for`, which returns
    ``None`` instead of raising), hand :meth:`worker_spec` to the
    workers, and destroy with :meth:`unlink` — or let the context
    manager / the module's ``atexit`` hook do it.
    """

    def __init__(self, shm, fingerprint: str) -> None:
        self._shm = shm
        self.fingerprint = fingerprint
        self.nbytes = shm.size
        self._dead = False

    # -- construction ------------------------------------------------------
    @classmethod
    def create(cls, dataset, fingerprint: Optional[str] = None) -> "DatasetPlane":
        """Serialize ``dataset`` into a fresh shared-memory segment.

        Secondary structure is assigned here, once, on the owner (it is
        cached back onto the master's chains as a side effect), so no
        worker ever recomputes it.  Raises :class:`PlaneUnavailable` on
        any shared-memory failure.
        """
        from multiprocessing import shared_memory

        fp = fingerprint or plane_fingerprint(dataset)
        chains = list(dataset)
        n = len(chains)
        lengths = [len(c) for c in chains]
        total = int(sum(lengths))
        if total * 3 > 2**31 - 1:
            raise PlaneUnavailable(
                f"{total} residues overflow the int32 offset table"
            )
        tab = np.zeros(n + 1, dtype=np.int32)
        tab[1:] = np.cumsum(np.asarray(lengths, dtype=np.int64)).astype(np.int32)
        seq_blob = "".join(c.sequence for c in chains).encode("ascii")
        ss_blob = "".join(c.secondary for c in chains).encode("ascii")

        tab_off = _align8(len(_MAGIC) + _HEADER.size)
        coords_off = _align8(tab_off + tab.nbytes)
        seq_off = coords_off + total * 24
        ss_off = seq_off + total
        meta_off = ss_off + total
        meta = json.dumps(
            {
                "fingerprint": fp,
                "dataset_name": getattr(dataset, "name", ""),
                "description": getattr(dataset, "description", ""),
                "names": [c.name for c in chains],
                "families": [c.family for c in chains],
                "n_chains": n,
                "total_residues": total,
                "tab_off": tab_off,
                "coords_off": coords_off,
                "seq_off": seq_off,
                "ss_off": ss_off,
            },
            sort_keys=True,
        ).encode("ascii")
        size = meta_off + len(meta)

        shm = None
        try:
            # name must stay under the portable (macOS) ~30-char limit;
            # pid + counter keep concurrent owners collision-free, and
            # the PID namespace tells the janitor whose pid it is
            for _ in range(8):
                segname = (
                    f"psc{os.getpid():x}-{_pid_namespace():x}-{fp[:6]}-"
                    f"{next(_SEGMENT_COUNTER):x}"
                )
                try:
                    shm = shared_memory.SharedMemory(
                        name=segname, create=True, size=size
                    )
                    break
                except FileExistsError:
                    continue
            if shm is None:
                raise PlaneUnavailable("could not allocate a segment name")
            buf = shm.buf
            buf[: len(_MAGIC)] = _MAGIC
            _HEADER.pack_into(buf, len(_MAGIC), meta_off, len(meta))
            tab_view = np.ndarray(
                tab.shape, dtype=np.int32, buffer=buf, offset=tab_off
            )
            tab_view[:] = tab
            coords_view = np.ndarray(
                (total, 3), dtype=np.float64, buffer=buf, offset=coords_off
            )
            pos = 0
            for chain in chains:
                coords_view[pos : pos + len(chain)] = chain.coords
                pos += len(chain)
            buf[seq_off : seq_off + total] = seq_blob
            buf[ss_off : ss_off + total] = ss_blob
            buf[meta_off : meta_off + len(meta)] = meta
            # release the write views before anyone may close the map
            del tab_view, coords_view, buf
        except PlaneUnavailable:
            if shm is not None:
                _destroy_segment(shm)
            raise
        except (OSError, ValueError, MemoryError) as exc:
            if shm is not None:
                _destroy_segment(shm)
            raise PlaneUnavailable(
                f"shared memory unavailable for dataset plane: {exc}"
            ) from exc
        plane = cls(shm, fp)
        with _LOCK:
            _LIVE.add(plane)
        return plane

    # -- farm integration --------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def live(self) -> bool:
        return not self._dead

    def worker_spec(self) -> tuple:
        """The tiny initializer payload replacing the pickled dataset."""
        return ("plane", (self.name, self.fingerprint))

    def attach(self) -> "ShmDataset":
        """Open a reader view of this plane (what workers do remotely)."""
        return ShmDataset.attach(self.name, fingerprint=self.fingerprint)

    # -- teardown ----------------------------------------------------------
    def unlink(self) -> None:
        """Owner-side destruction: close the map and remove the segment.

        Idempotent; never raises (teardown runs on exception paths,
        SIGTERM handlers and atexit, where a secondary error would mask
        the real one).
        """
        with _LOCK:
            if self._dead:
                return
            self._dead = True
            _LIVE.discard(self)
        _destroy_segment(self._shm)

    def __enter__(self) -> "DatasetPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def _destroy_segment(shm) -> None:
    try:
        shm.close()
    except (BufferError, OSError):
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        pass


class ShmDataset:
    """Worker-side zero-copy view of a :class:`DatasetPlane`.

    Quacks like :class:`repro.datasets.registry.Dataset` for everything
    the worker path touches (indexing, iteration, ``len``, ``by_name``).
    Chains materialize lazily as NumPy views over the shared segment:
    coordinates and SS codes copy nothing, sequence/SS strings decode
    once per chain and are cached.  Validation is skipped on purpose —
    the owner's :class:`Chain` constructor already validated this exact
    content before the plane was written, and the fingerprint proves the
    content is unchanged.
    """

    def __init__(self, shm, meta: dict) -> None:
        self._shm = shm
        self.fingerprint = meta["fingerprint"]
        self.name = meta["dataset_name"]
        self.description = meta["description"]
        self._names: List[str] = meta["names"]
        self._families: List[Optional[str]] = meta["families"]
        n = meta["n_chains"]
        total = meta["total_residues"]
        buf = shm.buf
        self._tab = np.ndarray(
            (n + 1,), dtype=np.int32, buffer=buf, offset=meta["tab_off"]
        )
        self._coords = np.ndarray(
            (total, 3), dtype=np.float64, buffer=buf, offset=meta["coords_off"]
        )
        self._seq = np.ndarray(
            (total,), dtype=np.uint8, buffer=buf, offset=meta["seq_off"]
        )
        self._ss = np.ndarray(
            (total,), dtype=np.uint8, buffer=buf, offset=meta["ss_off"]
        )
        self._cache: List[Optional[Chain]] = [None] * n
        self._index: Optional[Dict[str, int]] = None

    @classmethod
    def attach(cls, name: str, fingerprint: Optional[str] = None) -> "ShmDataset":
        """Open the segment ``name`` and verify its generation.

        ``fingerprint`` is the generation the caller expects (the master
        stamps it into the worker spec); a mismatch — e.g. a worker
        re-initialised against a segment name that now holds different
        content — raises :class:`PlaneUnavailable` rather than serving
        wrong chains.
        """
        try:
            shm = _attach_segment(name)
        except (OSError, ValueError) as exc:
            raise PlaneUnavailable(
                f"cannot attach dataset plane {name!r}: {exc}"
            ) from exc
        try:
            buf = shm.buf
            if bytes(buf[: len(_MAGIC)]) != _MAGIC:
                raise PlaneUnavailable(f"segment {name!r} is not a dataset plane")
            meta_off, meta_len = _HEADER.unpack_from(buf, len(_MAGIC))
            meta = json.loads(bytes(buf[meta_off : meta_off + meta_len]))
            if fingerprint is not None and meta["fingerprint"] != fingerprint:
                raise PlaneUnavailable(
                    f"plane {name!r} holds generation "
                    f"{meta['fingerprint'][:12]}..., expected "
                    f"{fingerprint[:12]}... (stale attach)"
                )
        except PlaneUnavailable:
            try:
                shm.close()
            except (BufferError, OSError):
                pass
            raise
        except Exception as exc:
            try:
                shm.close()
            except (BufferError, OSError):
                pass
            raise PlaneUnavailable(
                f"malformed dataset plane {name!r}: {exc}"
            ) from exc
        return cls(shm, meta)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[Chain]:
        for i in range(len(self._names)):
            yield self[i]

    def __getitem__(self, idx: int) -> Chain:
        chain = self._cache[idx]
        if chain is None:
            chain = self._materialize(idx)
            self._cache[idx] = chain
        return chain

    def _materialize(self, idx: int) -> Chain:
        lo = int(self._tab[idx])
        hi = int(self._tab[idx + 1])
        coords = self._coords[lo:hi]
        coords.setflags(write=False)
        ss_codes = self._ss[lo:hi]
        ss_codes.setflags(write=False)
        chain = Chain.__new__(Chain)
        chain.name = self._names[idx]
        chain.coords = coords
        chain.sequence = self._seq[lo:hi].tobytes().decode("ascii")
        chain.family = self._families[idx]
        chain._secondary = ss_codes.tobytes().decode("ascii")
        chain._ss_codes = ss_codes
        return chain

    def by_name(self, name: str) -> Chain:
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self._names)}
        try:
            return self[self._index[name]]
        except KeyError:
            raise KeyError(
                f"no chain named {name!r} in dataset {self.name!r}"
            ) from None

    @property
    def chains(self) -> tuple:
        return tuple(self[i] for i in range(len(self)))

    @property
    def total_residues(self) -> int:
        return int(self._tab[-1])

    def detach(self) -> None:
        """Drop every view, then close the mapping (never unlinks).

        Must run before interpreter shutdown in attaching processes:
        closing a map with NumPy views still exported raises
        ``BufferError``, which would surface as "Exception ignored"
        noise from ``__del__`` during teardown.
        """
        self._cache = [None] * len(self._names)
        self._tab = self._coords = self._seq = self._ss = None
        try:
            self._shm.close()
        except (BufferError, OSError):
            pass


#: segment names this module creates:
#: ``psc<owner pid, hex>-<owner's PID namespace inode, hex>-…``
_SEGMENT_NAME = re.compile(r"psc([0-9a-f]+)-([0-9a-f]+)-")
_SWEPT = False


def _pid_namespace() -> int:
    """Inode of this process's PID namespace; 0 where none can be read."""
    try:
        return os.stat("/proc/self/ns/pid").st_ino
    except OSError:
        return 0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM: alive, owned by someone else
        return True
    return True


def sweep_orphans() -> List[str]:
    """Unlink plane segments whose owner process is dead; returns their names.

    An owner that is SIGKILLed never runs its unlink hooks, so its
    segments would otherwise stay in ``/dev/shm`` for the life of the
    machine.  The owner pid and its PID namespace are read from the
    segment name.  A pid can only be checked from inside its own
    namespace: containers that share ``/dev/shm`` (an IPC namespace)
    but not their PIDs see each other's owners as dead, so segments
    tagged with another namespace — or with none — are left alone, and
    so is a segment whose pid is alive, even if the pid was reused by
    another process.
    """
    ns = _pid_namespace()
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # no POSIX shm directory (macOS): nothing to sweep
        return []
    removed = []
    for name in names:
        m = _SEGMENT_NAME.match(name)
        if m is None or ns == 0 or int(m.group(2), 16) != ns:
            continue
        pid = int(m.group(1), 16)
        if pid <= 0 or pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            continue
        removed.append(name)
    return removed


def plane_for(dataset) -> Optional[DatasetPlane]:
    """A fresh plane over ``dataset``, or ``None`` when shared memory
    cannot serve it (the caller falls back to the pickling spec).

    The caller owns the plane and unlinks it when its drain ends.  The
    first call in a process runs :func:`sweep_orphans` first.
    """
    global _SWEPT
    try:
        fp = plane_fingerprint(dataset)
    except Exception:
        return None
    with _LOCK:
        if not _SWEPT:
            _SWEPT = True
            sweep_orphans()
    try:
        return DatasetPlane.create(dataset, fingerprint=fp)
    except PlaneUnavailable:
        return None


def shutdown_planes() -> None:
    """Unlink every plane this process still owns (atexit / CLI finally
    hook): a drain caught mid-flight by SIGTERM or KeyboardInterrupt
    leaves its plane to this."""
    with _LOCK:
        planes = list(_LIVE)
    for plane in planes:
        plane.unlink()


# Owner-side backstop: whatever the CLI/service teardown misses (or an
# exception path skips) is unlinked when the interpreter exits.  Forked
# pool workers never run atexit handlers (multiprocessing children exit
# via os._exit), so an inherited live set cannot double-unlink.
atexit.register(shutdown_planes)
