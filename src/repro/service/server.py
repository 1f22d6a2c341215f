"""The always-on PSC query service: an asyncio TCP line-protocol server.

One :class:`PSCService` owns the structure registry (corpus loaded once
at startup), the LRU result cache, the dynamic micro-batcher, one
long-lived :class:`~repro.parallel.FarmBackend` whose process pool
serves every batch, matrix run and store build of the shard from start
to close, and the durable-run bridge into :mod:`repro.runs`.  The shard
keeps no shared-memory segment of its own: each drain on the pool
publishes its dataset plane and unlinks it when it ends.  Requests
and responses are newline-delimited canonical JSON (see
:mod:`repro.service.protocol`).

Supported ops::

    align          pairwise comparison of two registered chains
    search         one-vs-all ranked search of the corpus (optionally
                   restricted to a coordinator-owned target slice)
    register       ad-hoc PDB upload into the registry
    corpus         ordered corpus view (hashes + names + generation +
                   fingerprint) for the shard coordinator
    submit-matrix  enqueue a durable all-vs-all run (repro.runs)
    status         progress/status of a durable run
    healthz        liveness + corpus summary
    metrics        counters, gauges, latency histograms, cache stats
    shutdown       stop serving (replies first, then exits)

Overload degrades gracefully: admission control on the batch queue sheds
excess jobs with a typed ``overloaded`` reply while everything already
admitted completes; repeated queries are served from the result cache
byte-identically to their first, uncached responses.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.parallel import FarmBackend, ParallelConfig
from repro.service.batcher import MicroBatcher, result_body
from repro.service.cache import ResultCache, pair_key
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MAX_LINE_BYTES,
    BadRequest,
    NotFound,
    ServiceError,
    ServiceOverloaded,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_fraction,
    parse_positive_int,
    resolve_method,
)
from repro.service.registry import StructureRegistry

__all__ = ["LineProtocolServer", "ServiceConfig", "PSCService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of one service instance.

    Each field is a deployment setting; a test that needs to hold or
    script a batch passes ``PSCService(evaluate=)``.
    """

    dataset: str = "ck34-mini"  # corpus loaded at startup ("" = start empty)
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (recorded on PSCService.port)
    queue_limit: int = 64  # admission control: max pending pair jobs
    max_batch: int = 16  # jobs per dispatched kernel batch
    batch_window: float = 0.002  # seconds to wait for a batch to fill
    farm: ParallelConfig = ParallelConfig()  # batches, store builds, runs
    cache_capacity: int = 1024  # LRU result-cache entries
    runs_dir: str = "runs"  # durable store for submit-matrix
    matstore_dir: str = ""  # precomputed matrix store root ("" = none)


def _require_str(payload: Dict[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value:
        raise BadRequest(f"request needs a non-empty string field {field!r}")
    return value


def _retrieve_exception(job: asyncio.Future) -> None:
    """Done callback of a job no request awaits any more: marks its
    exception retrieved, so a late failure is not reported as lost."""
    if not job.cancelled():
        job.exception()


class LineProtocolServer:
    """The TCP front end shared by one-node services and the coordinator.

    Owns the asyncio server lifecycle and the per-connection request
    loop: newline-delimited canonical-JSON requests dispatched through
    ``self._ops`` (op name -> async handler returning ``(result,
    cached)``), every failure mapped onto a typed wire error, per-op
    latency observed into ``self.metrics``.  Subclasses define the ops;
    :class:`PSCService` adds the registry/batcher plumbing, the shard
    coordinator adds fan-out plumbing — the wire behaviour is one
    implementation, so a client (or the coordinator itself) cannot tell
    which kind of server answered.
    """

    def __init__(self, host: str, port: int, metrics: ServiceMetrics) -> None:
        self.host = host
        self.port = port
        self._bind = (host, port)
        self.metrics = metrics
        self._ops: Dict[str, Any] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_writers: set = set()

    # -- lifecycle ---------------------------------------------------------
    async def _on_start(self) -> None:
        """Subclass hook, awaited before the listening socket opens."""

    async def _aclose_extra(self) -> None:
        """Subclass hook, awaited between closing the listener and
        waiting for it to drain."""

    async def start(self) -> None:
        self._stop_event = asyncio.Event()
        await self._on_start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._bind[0],
            self._bind[1],
            limit=MAX_LINE_BYTES,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    async def serve_until_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`request_stop`)."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await asyncio.sleep(0.05)  # let the shutdown reply flush

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
        # sever live connections too: closing only the listener would
        # leave pooled peers (e.g. a coordinator's shard connections)
        # talking to a server that is supposed to be gone
        for writer in list(self._conn_writers):
            with contextlib.suppress(ConnectionError, RuntimeError):
                writer.close()
        await self._aclose_extra()
        if self._server is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), timeout=0.5)
            self._server = None

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- connection handling -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("connections")
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    response = error_response(
                        None, BadRequest("request line too long")
                    )
                    async with write_lock:
                        writer.write(encode_line(response))
                        await writer.drain()
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except ConnectionError:
            pass
        finally:
            self._conn_writers.discard(writer)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _serve_request(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id: Any = None
        op = "unknown"
        t0 = time.perf_counter()
        try:
            payload = decode_line(line)
            request_id = payload.get("id")
            op = payload.get("op") or "unknown"
            handler = self._ops.get(op)
            if handler is None:
                raise BadRequest(
                    f"unknown op {op!r}; known: {sorted(self._ops)}"
                )
            self.metrics.inc(f"requests_{op}")
            result, cached = await handler(payload)
            response = ok_response(request_id, result, cached)
        except Exception as exc:  # every failure maps onto the wire
            code = exc.code if isinstance(exc, ServiceError) else "internal"
            self.metrics.inc(f"errors_{code}")
            response = error_response(request_id, exc)
        self.metrics.observe(f"op_{op}", time.perf_counter() - t0)
        async with write_lock:
            with contextlib.suppress(ConnectionError, RuntimeError):
                writer.write(encode_line(response))
                await writer.drain()


class PSCService(LineProtocolServer):
    """One server instance: registry + cache + batcher + TCP front end."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[StructureRegistry] = None,
        evaluate=None,
    ) -> None:
        self.config = config or ServiceConfig()
        super().__init__(self.config.host, self.config.port, ServiceMetrics())
        self.cache = ResultCache(self.config.cache_capacity)
        self.registry = registry or StructureRegistry()
        if self.config.dataset and registry is None:
            from repro.datasets.registry import load_dataset

            self.registry.load_dataset(load_dataset(self.config.dataset))
        # one pool per shard, built on the first drain, closed in aclose
        self.farm = FarmBackend(self.config.farm)
        self.batcher = MicroBatcher(
            queue_limit=self.config.queue_limit,
            max_batch=self.config.max_batch,
            batch_window=self.config.batch_window,
            metrics=self.metrics,
            evaluate=evaluate,
            backend=self.farm,
        )
        # run_id -> (thread, {"error": ...}) for submit-matrix background runs
        self._matrix_jobs: Dict[str, Tuple[threading.Thread, Dict[str, Any]]] = {}
        # (corpus hashes, keep) -> SequencePrefilter; rebuilt only when a
        # registration changes the corpus or a request changes the knob
        self._prefilters: Dict[Tuple[Tuple[str, ...], float], Any] = {}
        # precomputed similarity-matrix store: reader instance swapped
        # whole after every build/extend, writes serialized by the lock
        self.matstore = None
        self._matstore_lock = threading.Lock()
        self._matstore_job: Optional[Tuple[threading.Thread, Dict[str, Any]]] = None
        self._matstore_last_error = ""  # last failed extend, for status
        if self.config.matstore_dir:
            from repro.matstore import MatrixStore, MatStoreError

            try:
                self.matstore = MatrixStore.open(self.config.matstore_dir)
            except MatStoreError:
                pass  # not built yet; matstore-build creates it
        self._ops = {
            "align": self._op_align,
            "search": self._op_search,
            "register": self._op_register,
            "corpus": self._op_corpus,
            "submit-matrix": self._op_submit_matrix,
            "matstore-build": self._op_matstore_build,
            "matstore-lookup": self._op_matstore_lookup,
            "status": self._op_status,
            "healthz": self._op_healthz,
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
        }

    # -- lifecycle ---------------------------------------------------------
    async def _on_start(self) -> None:
        self.batcher.start()

    async def _aclose_extra(self) -> None:
        await self.batcher.stop()
        await asyncio.get_running_loop().run_in_executor(None, self.farm.close)

    # -- pair evaluation with cache ----------------------------------------
    def _store_scores(
        self, hash_a: str, hash_b: str, method_name: str, params_hash: str
    ) -> Optional[Dict[str, float]]:
        """Matrix-store consult for one pair, or None on a miss.

        Serves only the store's own orientation (TM-align is
        direction-dependent) and only methods/params the store was built
        with; every consult of a servable pair counts a hit or a miss.
        """
        store = self.matstore
        if store is None:
            return None
        from repro.matstore.store import SERVABLE_KEYS

        keys = SERVABLE_KEYS.get(method_name)
        if keys is None or params_hash != store.params_hash:
            return None
        hit = store.lookup(hash_a, hash_b)
        if hit is None or hit.swapped:
            self.metrics.inc("matstore_misses")
            return None
        self.metrics.inc("matstore_hits")
        return {k: hit.scores[k] for k in keys}

    async def _pair_body(
        self,
        hash_a: str,
        chain_a,
        hash_b: str,
        chain_b,
        method,
        method_name: str,
        params_hash: str,
    ) -> Tuple[str, bool]:
        """The canonical body for one pair: result cache, then the
        precomputed matrix store, then batched compute."""
        key = pair_key(hash_a, hash_b, method_name, params_hash)
        body = self.cache.get(key)
        if body is not None:
            return body, True
        scores = self._store_scores(hash_a, hash_b, method_name, params_hash)
        if scores is not None:
            # the batcher's body: store hits are byte-identical across
            # requests and server restarts
            body = result_body(key, method, scores)
            self.cache.put(key, body)
            self.metrics.set_gauge("cache_size", len(self.cache))
            return body, True
        body = await self.batcher.submit(key, chain_a, chain_b, method)
        self.cache.put(key, body)
        self.metrics.set_gauge("cache_size", len(self.cache))
        return body, False

    # -- ops ---------------------------------------------------------------
    async def _op_align(self, payload: Dict[str, Any]):
        method_name = payload.get("method", "tmalign")
        method, params_hash = resolve_method(method_name, payload.get("params"))
        hash_a, chain_a = self.registry.resolve(_require_str(payload, "a"))
        hash_b, chain_b = self.registry.resolve(_require_str(payload, "b"))
        body, cached = await self._pair_body(
            hash_a, chain_a, hash_b, chain_b, method, method_name, params_hash
        )
        return json.loads(body), cached

    def _corpus_prefilter(self, keep: float):
        """The cached sequence prefilter for the current corpus."""
        from repro.seqalign.prefilter import PrefilterConfig, SequencePrefilter

        hashes = tuple(h for h, _c in self.registry.corpus())
        key = (hashes, keep)
        pf = self._prefilters.get(key)
        if pf is None:
            chains = [c for _h, c in self.registry.corpus()]
            pf = SequencePrefilter.from_chains(
                chains, PrefilterConfig(keep=keep)
            )
            # keep one corpus generation at a time: a registration
            # changes the hash tuple and drops every stale filter
            self._prefilters = {
                k: v for k, v in self._prefilters.items() if k[0] == hashes
            }
            self._prefilters[key] = pf
            self.metrics.inc("prefilter_builds")
        return pf

    async def _op_search(self, payload: Dict[str, Any]):
        from repro.psc.search import rank_hits
        from repro.seqalign.prefilter import PrefilterConfig

        method_name = payload.get("method", "tmalign")
        method, params_hash = resolve_method(method_name, payload.get("params"))
        top = parse_positive_int(payload, "top", 10)
        use_prefilter = bool(payload.get("prefilter", False))
        keep = parse_fraction(
            payload, "prefilter_keep", PrefilterConfig.keep
        )
        hash_q, chain_q = self.registry.resolve(_require_str(payload, "query"))
        exclude_self = bool(payload.get("exclude_self", True))
        raw_targets = payload.get("targets")
        if raw_targets is not None:
            # shard-partitioned search: the coordinator restricts each
            # shard to the slice of the corpus it owns; everything else
            # (cache, batcher, ranking) is the single-node path
            if not isinstance(raw_targets, list) or not all(
                isinstance(t, str) and t for t in raw_targets
            ):
                raise BadRequest(
                    "targets must be a list of non-empty chain references"
                )
            seen: set = set()
            targets = []
            for ref in raw_targets:
                h, c = self.registry.resolve(ref)
                if h in seen or (exclude_self and h == hash_q):
                    continue
                seen.add(h)
                targets.append((h, c))
            if not targets:
                # an empty slice is a valid sub-search (e.g. the slice
                # held only the query itself): report zero candidates so
                # the coordinator's merge stays total
                return (
                    {
                        "query": hash_q,
                        "method": method_name,
                        "params_hash": params_hash,
                        "corpus": 0,
                        "from_cache": 0,
                        "hits": [],
                    },
                    True,
                )
        else:
            targets = [
                (h, c)
                for h, c in self.registry.corpus()
                if not (exclude_self and h == hash_q)
            ]
        if not targets:
            raise BadRequest("the search corpus is empty")
        eligible = len(targets)
        if use_prefilter:
            # the cheap tier runs BEFORE admission: pairs it sheds never
            # occupy micro-batcher slots or kernel batch lanes
            pf = self._corpus_prefilter(keep)
            corpus = self.registry.corpus()
            allowed = {h for h, _c in targets}
            excluded = {
                k
                for k, (h, _c) in enumerate(corpus)
                if h not in allowed
            }
            promoted = set(
                pf.promote_chain(chain_q, exclude=excluded)
            )
            targets = [
                (h, c)
                for k, (h, c) in enumerate(corpus)
                if k in promoted
            ]
            self.metrics.inc("prefilter_searches")
            self.metrics.inc(
                "prefilter_demoted", eligible - len(targets)
            )
        jobs = [
            asyncio.ensure_future(
                self._pair_body(
                    hash_q, chain_q, h, c, method, method_name, params_hash
                )
            )
            for h, c in targets
        ]
        # every job is admitted or shed in its first step, before any
        # finishes; a shed is known at the first failure, so reply then
        # and let the admitted jobs finish into the cache on their own
        done, _ = await asyncio.wait(jobs, return_when=asyncio.FIRST_EXCEPTION)
        shed = sum(
            1
            for job in done
            if not job.cancelled()
            and isinstance(job.exception(), ServiceOverloaded)
        )
        if shed:
            for job in jobs:
                job.add_done_callback(_retrieve_exception)
            raise ServiceOverloaded(
                f"search shed {shed}/{len(targets)} pair jobs at admission; "
                "retry later"
            )
        outcomes = await asyncio.gather(*jobs, return_exceptions=True)
        for r in outcomes:
            if isinstance(r, BaseException):
                raise r
        rows = []
        hash_by_name: Dict[str, str] = {}
        n_cached = 0
        for (h, _c), (body, cached) in zip(targets, outcomes):
            name = self.registry.name_of(h)
            rows.append((name, json.loads(body)["scores"]))
            hash_by_name[name] = h
            n_cached += bool(cached)
        hits = rank_hits(rows, method)
        result = {
            "query": hash_q,
            "method": method_name,
            "params_hash": params_hash,
            "corpus": len(targets),
            "from_cache": n_cached,
            "hits": [
                {
                    "chain": hit.chain_name,
                    "hash": hash_by_name[hit.chain_name],
                    "score": hit.score,
                    "scores": hit.details,
                }
                for hit in hits[:top]
            ],
        }
        if use_prefilter:
            # additive key only on the opt-in path: default responses
            # stay byte-identical under canonical JSON
            result["corpus"] = eligible
            result["prefilter"] = {
                "keep": keep,
                "promoted": len(targets),
                "demoted": eligible - len(targets),
            }
        return result, n_cached == len(targets)

    def corpus_dataset(self):
        """The registry corpus as a ``(Dataset, content_hashes)`` pair.

        One construction shared by every matstore build, so they agree
        on dataset identity.  Raises ``ValueError`` when the corpus is
        empty or holds duplicate chain names.
        """
        from repro.datasets.registry import Dataset

        corpus = self.registry.corpus()
        dataset = Dataset(
            self.registry.dataset_name or "service-corpus",
            tuple(chain for _h, chain in corpus),
            "service registry corpus",
        )
        return dataset, tuple(h for h, _c in corpus)

    async def _op_register(self, payload: Dict[str, Any]):
        name = _require_str(payload, "name")
        text = _require_str(payload, "pdb")
        corpus = bool(payload.get("corpus", False))
        chain_hash = self.registry.register_pdb(text, name, corpus=corpus)
        _, chain = self.registry.resolve(chain_hash)
        self.metrics.inc("chains_registered")
        result = {
            "hash": chain_hash,
            "name": name,
            "residues": len(chain),
            "corpus": corpus,
        }
        if corpus and self.matstore is not None:
            # additive key only when a store is attached, so default
            # register responses stay byte-identical
            result["matstore"] = (
                "stored"
                if chain_hash in self.matstore
                else self._extend_matstore_async(chain_hash)
            )
        return result, None

    async def _op_corpus(self, payload: Dict[str, Any]):
        """The registry's corpus view, in registration order.

        This is what the shard coordinator partitions: ordered content
        hashes plus display names, stamped with the registry generation
        and corpus fingerprint so a cached view is revalidatable without
        re-reading the chain list.
        """
        return (
            {
                "dataset": self.registry.dataset_name,
                "generation": self.registry.generation,
                "fingerprint": self.registry.corpus_fingerprint(),
                "chains": [
                    {"hash": h, "name": self.registry.name_of(h)}
                    for h, _c in self.registry.corpus()
                ],
            },
            None,
        )

    # -- matrix store ------------------------------------------------------
    def _matstore_root(self) -> str:
        if self.config.matstore_dir:
            return self.config.matstore_dir
        if self.matstore is not None:
            return self.matstore.root
        return ""

    def _extend_matstore_async(self, chain_hash: str) -> str:
        """Kick off the incremental row computation for one new corpus
        chain: exactly ``n`` new pairs, journaled then appended at the
        block tails, behind the store writer lock."""
        root = self._matstore_root()

        def work() -> None:
            from repro.matstore import MatrixStore, extend_store

            try:
                with self._matstore_lock:
                    store = MatrixStore.open(root)
                    if chain_hash in store:
                        return
                    corpus = [self.registry.resolve(h)[1] for h in store.hashes]
                    _h, chain = self.registry.resolve(chain_hash)
                    extend_store(store, corpus, chain, backend=self.farm)
                    # reopen-and-swap inside the lock: with concurrent
                    # extends, an open outside could capture a pre-commit
                    # header and publish a stale reader after a newer one
                    self.matstore = MatrixStore.open(root)
                self.metrics.inc("matstore_extends")
            except BaseException as exc:
                self.metrics.inc("matstore_extend_errors")
                self._matstore_last_error = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(
            target=work, name=f"matstore-extend-{chain_hash[:8]}", daemon=True
        )
        thread.start()
        return "extending"

    async def _op_matstore_build(self, payload: Dict[str, Any]):
        root = payload.get("root") or self._matstore_root()
        if not root:
            raise BadRequest(
                "no matrix store root: pass 'root' or start the server "
                "with --matstore-dir"
            )
        if not self.registry.corpus():
            raise BadRequest("the registry corpus is empty; nothing to build")
        if self._matstore_job is not None and self._matstore_job[0].is_alive():
            raise BadRequest("a matstore build is already running")
        dataset, _hashes = self.corpus_dataset()
        n = len(dataset)
        outcome: Dict[str, Any] = {"error": None, "result": None}

        def work() -> None:
            from repro.matstore import MatrixStore, ensure_coverage

            try:
                with self._matstore_lock:
                    r = ensure_coverage(root, dataset, backend=self.farm)
                    # swap under the lock, same reasoning as extend
                    self.matstore = MatrixStore.open(root)
                outcome["result"] = {
                    "n_pairs": r.n_pairs,
                    "n_computed": r.n_computed,
                    "wall_seconds": round(r.wall_seconds, 3),
                }
            except BaseException as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(
            target=work, name="matstore-build", daemon=True
        )
        self._matstore_job = (thread, outcome)
        thread.start()
        self.metrics.inc("matstore_builds_submitted")
        return (
            {
                "root": root,
                "dataset": dataset.name,
                "n_chains": n,
                "n_pairs": n * (n - 1) // 2,
                "building": True,
            },
            None,
        )

    async def _op_matstore_lookup(self, payload: Dict[str, Any]):
        store = self.matstore
        if store is None:
            raise BadRequest(
                "no matrix store attached; run matstore-build first "
                "(server started with --matstore-dir)"
            )
        hash_a, _a = self.registry.resolve(_require_str(payload, "a"))
        hash_b, _b = self.registry.resolve(_require_str(payload, "b"))
        hit = store.lookup(hash_a, hash_b)
        if hit is None:
            self.metrics.inc("matstore_misses")
            raise NotFound(
                f"pair ({hash_a[:12]}..., {hash_b[:12]}...) is not in the "
                "matrix store"
            )
        self.metrics.inc("matstore_hits")
        return (
            {
                "pair": [hash_a, hash_b],
                "swapped": hit.swapped,
                "method": store.method,
                "params_hash": store.params_hash,
                "scores": hit.scores,
            },
            None,
        )

    def _matstore_summary(self) -> Dict[str, Any]:
        """Store stats + lookup counters for ``status`` and ``metrics``."""
        out: Dict[str, Any] = {"attached": self.matstore is not None}
        root = self._matstore_root()
        if root:
            out["root"] = root
        if self.matstore is not None:
            out.update(self.matstore.stats())
        counters = self.metrics.snapshot().get("counters", {})
        out["lookup_hits"] = counters.get("matstore_hits", 0)
        out["lookup_misses"] = counters.get("matstore_misses", 0)
        job = self._matstore_job
        if job is not None:
            out["building"] = job[0].is_alive()
            if job[1]["error"]:
                out["error"] = job[1]["error"]
            elif job[1]["result"] and not job[0].is_alive():
                out["last_build"] = job[1]["result"]
        if self._matstore_last_error:
            out["extend_error"] = self._matstore_last_error
        return out

    def _matrix_runs_summary(self) -> Dict[str, str]:
        """``run_id -> running/failed/done`` of every submit-matrix run."""
        return {
            run_id: (
                "running"
                if thread.is_alive()
                else ("failed" if outcome["error"] else "done")
            )
            for run_id, (thread, outcome) in sorted(self._matrix_jobs.items())
        }

    async def _op_submit_matrix(self, payload: Dict[str, Any]):
        from repro.datasets.registry import load_dataset
        from repro.runs import RunStore, matrix_run

        dataset_name = payload.get("dataset") or self.config.dataset
        method_name = payload.get("method", "sse_composition")
        method, _params_hash = resolve_method(method_name, payload.get("params"))
        try:
            dataset = load_dataset(dataset_name)
        except KeyError as exc:
            raise BadRequest(str(exc.args[0])) from None
        store = RunStore(payload.get("runs_dir") or self.config.runs_dir)
        run_id = store.new_run_id("service-matrix")
        output = os.path.join(store.run_dir(run_id), "matrix.csv")
        outcome: Dict[str, Any] = {"error": None}

        def work() -> None:
            try:
                matrix_run(
                    dataset, method, output, store,
                    run_id=run_id, backend=self.farm,
                )
            except BaseException as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(
            target=work, name=f"service-{run_id}", daemon=True
        )
        self._matrix_jobs[run_id] = (thread, outcome)
        thread.start()
        self.metrics.inc("matrix_runs_submitted")
        n = len(dataset)
        return (
            {
                "run_id": run_id,
                "dataset": dataset.name,
                "method": method_name,
                "n_pairs": n * (n - 1) // 2,
                "output": output,
            },
            None,
        )

    async def _op_status(self, payload: Dict[str, Any]):
        from repro.runs import RunStore, RunStoreError

        if not payload.get("run_id"):
            # service-level status: corpus + matrix store + background jobs
            return (
                {
                    "status": "ok",
                    "dataset": self.registry.dataset_name,
                    "corpus": len(self.registry.corpus()),
                    "chains": len(self.registry),
                    "registry_generation": self.registry.generation,
                    "corpus_fingerprint": self.registry.corpus_fingerprint(),
                    "matstore": self._matstore_summary(),
                    "matrix_runs": self._matrix_runs_summary(),
                },
                None,
            )
        run_id = _require_str(payload, "run_id")
        runs_dir = payload.get("runs_dir") or self.config.runs_dir
        store = RunStore(runs_dir)
        job = self._matrix_jobs.get(run_id)
        try:
            run = store.open(run_id)
        except RunStoreError:
            if job is not None:  # submitted, directory not created yet
                return {"run_id": run_id, "status": "starting"}, None
            raise NotFound(f"no run {run_id!r} under {runs_dir!r}") from None
        done, total = run.progress()
        result = {
            "run_id": run_id,
            "status": run.manifest.status,
            "command": run.manifest.command,
            "dataset": run.manifest.dataset,
            "method": run.manifest.method,
            "done": done,
            "n_pairs": total,
        }
        if job is not None and job[1]["error"]:
            result["error"] = job[1]["error"]
        return result, None

    async def _op_healthz(self, payload: Dict[str, Any]):
        return (
            {
                "status": "ok",
                "dataset": self.registry.dataset_name,
                "corpus": len(self.registry.corpus()),
                "chains": len(self.registry),
                # generation + fingerprint let the coordinator (and
                # operators) detect shard/registry drift from liveness
                # probes alone
                "registry_generation": self.registry.generation,
                "corpus_fingerprint": self.registry.corpus_fingerprint(),
                "uptime_seconds": round(self.metrics.uptime_seconds, 3),
                "pid": os.getpid(),
            },
            None,
        )

    async def _op_metrics(self, payload: Dict[str, Any]):
        snap = self.metrics.snapshot()
        snap["counters"]["farm_pools_built"] = self.farm.pools_built
        snap["cache"] = self.cache.stats()
        snap["registry"] = self.registry.stats()
        snap["queue"] = {
            "depth": self.batcher.depth,
            "limit": self.config.queue_limit,
            "max_batch": self.config.max_batch,
            "batch_window_seconds": self.config.batch_window,
        }
        snap["matrix_runs"] = self._matrix_runs_summary()
        snap["matstore"] = self._matstore_summary()
        return snap, None

    async def _op_shutdown(self, payload: Dict[str, Any]):
        self.request_stop()
        return {"stopping": True}, None
