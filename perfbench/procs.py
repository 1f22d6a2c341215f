"""Process-level measurement from ``/proc``: tree RSS, per-role CPU,
leak checks and the environment record.

Everything here reads the kernel's own accounting from outside the
program, so it costs the measured processes nothing.
"""

from __future__ import annotations

import os
import platform
import signal
import statistics
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

CLK_TCK = os.sysconf("SC_CLK_TCK")
PAGE = os.sysconf("SC_PAGE_SIZE")

#: RSS sampling period of the tree sampler, seconds
RSS_INTERVAL = 0.05


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (field 3 on)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    return text[text.rfind(")") + 2:].split()


def cpu_ticks(pid: int, children: bool = False) -> int:
    """utime+stime of ``pid`` (plus reaped children's when asked)."""
    f = _stat_fields(pid)
    if f is None:
        return 0
    # fields 14..17 of stat(5): utime stime cutime cstime; f[0] is field 3
    total = int(f[11]) + int(f[12])
    if children:
        total += int(f[13]) + int(f[14])
    return total


def start_time(pid: int) -> Optional[int]:
    f = _stat_fields(pid)
    return int(f[19]) if f is not None else None


def alive(pid: int, started: Optional[int]) -> bool:
    """True while ``pid`` is the same, not-yet-zombie process."""
    f = _stat_fields(pid)
    return f is not None and f[0] != "Z" and int(f[19]) == started


def children(pid: int) -> List[int]:
    """Direct children of every thread of ``pid``."""
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> List[int]:
    out: List[int] = []
    stack = [pid]
    while stack:
        for child in children(stack.pop()):
            out.append(child)
            stack.append(child)
    return out


def rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * PAGE
    except (OSError, IndexError, ValueError):
        return 0


class TreeSampler:
    """Samples the summed RSS of this process tree every
    :data:`RSS_INTERVAL` seconds and remembers every process it saw, so
    the leak check can find stragglers afterwards."""

    def __init__(self) -> None:
        self.root = os.getpid()
        # (perf_counter, summed RSS) while measuring
        self.samples: List[Tuple[float, int]] = []
        self.seen: Dict[int, Optional[int]] = {}  # pid -> start time
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._sampling = False

    def start(self) -> None:
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def measure(self, on: bool) -> None:
        """Switch RSS sampling on (dropping earlier samples) or off."""
        if on:
            self.samples = []
        self._sampling = on

    def sample(self) -> None:
        pids = descendants(self.root)
        for pid in pids:
            if pid not in self.seen:
                self.seen[pid] = start_time(pid)
        if self._sampling:
            total = rss_bytes(self.root) + sum(rss_bytes(p) for p in pids)
            self.samples.append((time.perf_counter(), total))

    def request_peak(self, windows: Sequence[Tuple[float, float]]) -> float:
        """Median over requests, given as (start, end) perf_counter
        windows, of the tree's peak RSS during each.  A single peak of
        the whole phase is a rare overlap of a finishing and a starting
        farm pool caught by a sample or not; a request's peak is not."""
        peaks = []
        for t0, t1 in windows:
            inside = [rss for t, rss in self.samples if t0 <= t <= t1]
            if inside:
                peaks.append(max(inside))
        if peaks:
            return statistics.median(peaks)
        return max((rss for _t, rss in self.samples), default=0)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.sample()

    def stragglers(self, grace: float = 10.0) -> List[int]:
        """Processes this run started that are still alive after
        ``grace`` seconds.  This process's multiprocessing resource
        tracker is not one: it lives as long as this process, and
        :func:`stop_resource_tracker` ends it before the final check."""
        self.sample()
        deadline = time.monotonic() + grace
        while True:
            left = [
                p for p, st in self.seen.items()
                if alive(p, st) and not _own_tracker(p, self.root)
            ]
            if not left or time.monotonic() >= deadline:
                return left
            time.sleep(0.05)


def _own_tracker(pid: int, parent: int) -> bool:
    f = _stat_fields(pid)
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmdline = fh.read()
    except OSError:
        return False
    return (
        f is not None
        and int(f[1]) == parent
        and b"multiprocessing.resource_tracker" in cmdline
    )


#: prctl(2) option: orphaned descendants are re-parented to the caller
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of its tree: a descendant whose
    parent exits is re-parented here instead of to init, so
    :func:`reap_all` can still stop it and wait for it."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


def _wait_or_kill(pid: int, grace: float) -> None:
    deadline = time.monotonic() + grace
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):
        pass


def stop_resource_tracker(grace: float = 10.0) -> None:
    """End this process's multiprocessing resource tracker and wait for
    it.  Left alone it would outlive this process by the time it takes
    to notice its pipe closed."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None or pid is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
    _wait_or_kill(pid, grace)


def reap_all(grace: float = 10.0) -> None:
    """Stop the resource tracker, wait up to ``grace`` seconds for every
    other child (orphans adopted by :func:`adopt_orphans` included),
    then kill the ones left and wait for them too."""
    stop_resource_tracker(grace)
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in children(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


class CpuAccount:
    """CPU seconds per role over one phase, from ``/proc`` stat deltas.

    Roles map to pids: ``client`` is this process (the generator, and
    the farm master on ``matrix_batch``); ``workers`` are the children
    of ``worker_parent`` — live ones by their own counters, reaped ones
    through the parent's ``cutime``/``cstime``, so pools created and
    torn down inside the phase are still counted.
    """

    def __init__(self, roles: Dict[str, int], worker_parent: int) -> None:
        self.roles = roles
        self.worker_parent = worker_parent
        self._t0: Dict[str, int] = {}

    def _read(self) -> Dict[str, int]:
        out = {role: cpu_ticks(pid) for role, pid in self.roles.items()}
        skip = set(self.roles.values())
        live = [p for p in children(self.worker_parent) if p not in skip]
        f = _stat_fields(self.worker_parent)
        reaped = int(f[13]) + int(f[14]) if f is not None else 0
        out["workers"] = reaped + sum(
            cpu_ticks(p, children=True) for p in live
        )
        return out

    def start(self) -> None:
        self._t0 = self._read()

    def stop(self) -> Dict[str, float]:
        end = self._read()
        return {
            role: (end[role] - self._t0.get(role, 0)) / CLK_TCK for role in end
        }


def steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests, all CPUs, in ticks."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def loop_rate(seconds: float = 0.5) -> float:
    """Rounds per second of a fixed pure-Python loop on one core: the
    machine's speed at the moment, to tell a slow spell of a shared host
    from a slow program."""
    rounds = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        total = 0
        for i in range(10_000):
            total += i * i
        rounds += 1
    return rounds / (time.perf_counter() - t0)


def shm_segments() -> Set[str]:
    """Names of the farm's shared-memory planes currently in ``/dev/shm``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psc")}
    except OSError:
        return set()


def tree_files(root: str, skip: Iterable[str]) -> Set[str]:
    """Every file under ``root`` except bytecode caches and the ``skip``
    subtrees; a ``skip`` entry ending in ``*`` skips every directory
    whose path starts with it."""
    exact = {os.path.abspath(s) for s in skip if not s.endswith("*")}
    prefixes = tuple(os.path.abspath(s[:-1]) for s in skip if s.endswith("*"))

    def keep(path: str) -> bool:
        return path not in exact and not (prefixes and path.startswith(prefixes))

    out: Set[str] = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d
            for d in dirnames
            if d not in ("__pycache__", ".git") and keep(os.path.join(dirpath, d))
        ]
        out.update(os.path.join(dirpath, f) for f in filenames)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_rev(root: str) -> str:
    """Git revision when the checkout is a repository, otherwise a
    digest of the program sources (the checkout carries no history)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        pass
    import hashlib

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(root: str, seed: int, nproc: int) -> Dict[str, object]:
    import numpy

    from repro.seqalign._swnative import load_sw_kernel
    from repro.tmalign._dpnative import load_forward_kernel

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_nw": load_forward_kernel() is not None,
        "native_sw": load_sw_kernel() is not None,
        "rev": _source_rev(root),
        "seed": seed,
    }

