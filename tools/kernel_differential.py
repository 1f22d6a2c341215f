"""Differential of the compiled TM-align kernel against the NumPy path.

Runs ``tm_align`` over 1,642 ordered pairs: every ordered pair of ck34
(1,122) and 520 random ordered pairs of rs119 (seed 30).  The compiled
kernel runs in this process and the NumPy reference path
(``REPRO_NO_NATIVE_DP=1``) in a subprocess, at the same time.  Each
pair's full ``repr`` (numpy's print threshold lifted, every float to its
last bit) and op counts are compared; the tool prints a digest of the
results and exits 1 on any difference::

    PYTHONPATH=src python tools/kernel_differential.py              # all 1,642
    PYTHONPATH=src python tools/kernel_differential.py --pairs 300  # a subset

``--pairs N`` takes N pairs evenly spaced over the list, so a subset
still covers both datasets.  The NumPy path takes ~0.12 s a pair and the
kernel ~6 ms on a 2-vCPU Xeon, so the whole list takes ~4 minutes and
300 pairs ~40 s.  ``--emit`` prints this process's results as JSON
instead (the subprocess's mode).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

CK34_PAIRS = 34 * 33
RS119_PAIRS, RS119_SEED = 520, 30


def pair_list() -> list[tuple[str, int, int]]:
    """``(dataset, i, j)`` of every pair, ck34's first."""
    pairs = [("ck34", i, j) for i in range(34) for j in range(34) if i != j]
    ordered = [(i, j) for i in range(119) for j in range(119) if i != j]
    picks = np.random.default_rng(RS119_SEED).choice(
        len(ordered), RS119_PAIRS, replace=False
    )
    pairs += [("rs119", *ordered[k]) for k in picks]
    assert len(pairs) == CK34_PAIRS + RS119_PAIRS
    return pairs


def subset(pairs: list, n: int | None) -> list:
    """``n`` pairs evenly spaced over ``pairs`` (all of them for None)."""
    if n is None or n >= len(pairs):
        return pairs
    return [pairs[k] for k in np.linspace(0, len(pairs) - 1, n).round().astype(int)]


def results(pairs: list) -> list[str]:
    """One line per pair: the ``TMAlignResult`` repr and the op counts,
    or the exception ``tm_align`` raised."""
    from repro.cost.counters import CostCounter
    from repro.datasets import load_dataset
    from repro.tmalign import tm_align

    datasets = {name: load_dataset(name) for name in {p[0] for p in pairs}}
    lines = []
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        for name, i, j in pairs:
            counter = CostCounter()
            try:
                res = tm_align(datasets[name][i], datasets[name][j], counter=counter)
            except Exception as exc:  # both paths must raise alike
                lines.append(f"{name} {i} {j} {type(exc).__name__}: {exc}")
                continue
            lines.append(
                f"{name} {i} {j} {res!r} {sorted(counter.as_dict().items())!r}"
            )
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def reference(n: int | None) -> subprocess.Popen:
    """The NumPy path's :func:`results` for ``subset(pair_list(), n)``,
    started in a subprocess; ``communicate()`` returns its JSON."""
    env = dict(os.environ, REPRO_NO_NATIVE_DP="1")
    args = [sys.executable, os.path.abspath(__file__), "--emit"]
    if n is not None:
        args += ["--pairs", str(n)]
    return subprocess.Popen(args, env=env, stdout=subprocess.PIPE, text=True)


def compare(native: list[str], numpy: list[str]) -> int:
    """Print the digests and the first differing pairs; the count of
    differing pairs."""
    diffs = [(a, b) for a, b in zip(native, numpy) if a != b]
    diffs += [("", "")] * abs(len(native) - len(numpy))
    print(f"{len(native)} pairs, native digest {digest(native)}, "
          f"NumPy digest {digest(numpy)}: {len(diffs)} differ")
    for a, b in diffs[:3]:
        print(f"  native: {a[:300]}\n  numpy:  {b[:300]}")
    return len(diffs)


def native_on() -> bool:
    from repro.tmalign._dpnative import native_handles

    return all(getattr(mod, name) is not None for mod, name in native_handles())


def main(argv: list[str]) -> int | str:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=None,
                        help="an evenly spaced subset of this many pairs")
    parser.add_argument("--emit", action="store_true",
                        help="print this process's results as JSON and exit")
    args = parser.parse_args(argv)
    pairs = subset(pair_list(), args.pairs)
    if args.emit:
        json.dump(results(pairs), sys.stdout)
        return 0
    if not native_on():
        return "the compiled kernel is off: there is nothing to compare"
    proc = reference(args.pairs)
    native = results(pairs)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        return f"the NumPy reference run failed (exit {proc.returncode})"
    return 1 if compare(native, json.loads(out)) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
