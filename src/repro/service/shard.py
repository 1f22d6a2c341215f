"""Sharded multi-node PSC service: the scatter-gather coordinator.

One :class:`ShardCoordinator` fronts N independent :class:`~repro.
service.server.PSCService` shard processes and speaks the exact same
newline-JSON line protocol, so ``ServiceClient`` / ``query`` work
against it unchanged.  The corpus is *partitioned by ownership* —
rendezvous (highest-random-weight) hashing over content hashes decides
which shard computes and caches each pair — while the registry itself
is *replicated*: ``register`` is written to every shard (write-all),
so any shard can serve any pair when its owner is down.

Op routing::

    search           scatter: each shard searches only the corpus slice
                     it owns (the ``targets`` restriction), the
                     coordinator merges the per-shard rankings through
                     :func:`repro.psc.search.rank_hits` — byte-identical
                     to a single-node search over the same corpus
    align            routed to the shard owning the target chain (the
                     same shard that owns search pairs ending there, so
                     caches line up), failing over in HRW order
    matstore-lookup  routed like align
    register         replicated write-all; partial failures come back
                     as a typed ``partial`` block, not an error
    corpus/status/healthz/metrics/shutdown
                     coordinator-level (status probes every shard and
                     reports drift between corpus fingerprints)

Degradation is graceful by construction: every shard request carries a
timeout, a failed one fails over down the key's HRW preference order,
and when a corpus slice cannot be served by any
reachable shard the search returns what it has plus a typed
``partial`` block — never a hang, never a silent gap.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.service.client import (
    DEFAULT_CONNECT_BACKOFF,
    backoff_delays,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    ERROR_TYPES,
    MAX_LINE_BYTES,
    BadRequest,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
    encode_line,
    parse_positive_int,
    resolve_method,
)
from repro.service.server import LineProtocolServer

__all__ = [
    "rendezvous_rank",
    "rendezvous_owner",
    "partition_keys",
    "parse_shard_spec",
    "AsyncShardConnection",
    "CoordinatorConfig",
    "ShardCoordinator",
]

#: shortest hash prefix the coordinator resolves against its corpus view
#: (mirrors repro.service.registry.MIN_HASH_PREFIX)
_MIN_PREFIX = 8


# -- rendezvous (HRW) hashing ---------------------------------------------
def _hrw_weight(shard_id: str, key: str) -> bytes:
    return hashlib.sha256(f"{shard_id}|{key}".encode("utf-8")).digest()


def rendezvous_rank(key: str, shard_ids: Sequence[str]) -> List[str]:
    """Shards ordered by preference for ``key`` (highest weight first).

    sha256 makes the ranking deterministic across processes and
    platforms; because each (shard, key) weight is independent, removing
    a shard only reassigns the keys it owned (~1/N of them) and adding
    one only claims the keys it now wins — the classic HRW stability
    property the ownership tests pin down.
    """
    return sorted(
        shard_ids, key=lambda sid: (_hrw_weight(sid, key), sid), reverse=True
    )


def rendezvous_owner(key: str, shard_ids: Sequence[str]) -> str:
    """The owning shard for ``key``: first in the HRW preference order."""
    if not shard_ids:
        raise ValueError("rendezvous_owner needs at least one shard")
    return max(shard_ids, key=lambda sid: (_hrw_weight(sid, key), sid))


def partition_keys(
    keys: Iterable[str], shard_ids: Sequence[str]
) -> Dict[str, List[str]]:
    """Keys grouped by owning shard (input order preserved per shard)."""
    parts: Dict[str, List[str]] = {sid: [] for sid in shard_ids}
    for key in keys:
        parts[rendezvous_owner(key, shard_ids)].append(key)
    return parts


def parse_shard_spec(spec: str) -> str:
    """Normalize one ``host:port`` (or bare ``port``) shard address."""
    spec = spec.strip()
    if not spec:
        raise ValueError("empty shard address")
    host, sep, port_s = spec.rpartition(":")
    if not sep:
        host, port_s = "127.0.0.1", spec
    host = host or "127.0.0.1"
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"bad shard address {spec!r}") from None
    if not 1 <= port <= 65535:
        raise ValueError(f"shard port out of range in {spec!r}")
    return f"{host}:{port}"


# -- async shard connection ------------------------------------------------
class AsyncShardConnection:
    """One pipelined line-protocol connection to a shard.

    Requests are written with monotonically increasing ids and a reader
    task matches responses back to futures, so many coordinator
    coroutines share one TCP connection without head-of-line blocking
    server-side (the shard serves each line concurrently).  Connecting
    reuses the :func:`repro.service.client.backoff_delays` schedule —
    the same bounded reconnect-with-backoff the blocking client grew —
    and every failure surfaces as a typed
    :class:`~repro.service.protocol.ServiceUnavailable`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: float = 2.0,
        connect_retries: int = 1,
        connect_backoff: float = DEFAULT_CONNECT_BACKOFF,
    ) -> None:
        self.host = host
        self.port = port
        self.shard_id = f"{host}:{port}"
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._lock = asyncio.Lock()  # serializes connect + write

    async def _ensure_connected(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            return
        delays = backoff_delays(self.connect_retries, self.connect_backoff)
        attempts = 0
        while True:
            attempts += 1
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(
                        self.host, self.port, limit=MAX_LINE_BYTES
                    ),
                    timeout=self.connect_timeout,
                )
                break
            except (OSError, asyncio.TimeoutError) as exc:
                delay = next(delays, None)
                if delay is None:
                    raise ServiceUnavailable(
                        f"cannot connect to shard {self.shard_id} after "
                        f"{attempts} attempts: {type(exc).__name__}: {exc}"
                    ) from exc
                await asyncio.sleep(delay)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(self._reader)
        )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    break
                fut = self._pending.pop(response.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(response)
        except (ConnectionError, OSError):
            pass
        finally:
            self._teardown(
                ServiceUnavailable(f"shard {self.shard_id} connection lost")
            )

    def _teardown(self, exc: Exception) -> None:
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self._pending.clear()
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
        self._reader = None
        self._writer = None

    async def request(
        self, payload: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """One round trip; returns the raw response dict.

        Typed shard errors re-raise as their protocol exceptions;
        transport failures and timeouts raise
        :class:`~repro.service.protocol.ServiceUnavailable`.
        """
        async with self._lock:
            await self._ensure_connected()
            self._next_id += 1
            request_id = self._next_id
            fut = asyncio.get_running_loop().create_future()
            self._pending[request_id] = fut
            try:
                self._writer.write(encode_line({"id": request_id, **payload}))
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                self._pending.pop(request_id, None)
                self._teardown(
                    ServiceUnavailable(f"shard {self.shard_id} write failed")
                )
                raise ServiceUnavailable(
                    f"cannot send to shard {self.shard_id}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        try:
            response = await asyncio.wait_for(
                fut, timeout if timeout is not None else self.timeout
            )
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ServiceUnavailable(
                f"shard {self.shard_id} timed out on op "
                f"{payload.get('op')!r}"
            ) from None
        if not response.get("ok"):
            error = response.get("error") or {}
            exc_type = ERROR_TYPES.get(error.get("code", ""), ServiceError)
            raise exc_type(error.get("message", "shard error"))
        return response

    async def aclose(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
            self._reader_task = None
        self._teardown(ServiceUnavailable("connection closed"))


# -- coordinator -----------------------------------------------------------
@dataclass(frozen=True)
class CoordinatorConfig:
    """Every knob of one shard coordinator."""

    shards: Tuple[str, ...] = ()  # "host:port" shard addresses
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port
    timeout: float = 30.0  # per shard sub-request
    connect_timeout: float = 2.0  # per shard TCP connect attempt
    connect_retries: int = 1  # reconnect budget per connect cycle
    connect_backoff: float = DEFAULT_CONNECT_BACKOFF
    down_after: int = 2  # consecutive failures before a shard is down
    probe_cooldown: float = 2.0  # seconds a down shard sits out


class _ShardState:
    """Per-shard health + drift bookkeeping."""

    def __init__(self, shard_id: str, conn: AsyncShardConnection) -> None:
        self.id = shard_id
        self.conn = conn
        self.requests = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.down_since: Optional[float] = None  # monotonic, None = up
        self.last_error = ""
        self.generation: Optional[int] = None
        self.fingerprint: Optional[str] = None


class ShardCoordinator(LineProtocolServer):
    """Scatter-gather front end over N PSCService shards."""

    def __init__(self, config: CoordinatorConfig) -> None:
        if not config.shards:
            raise ValueError("CoordinatorConfig needs at least one shard")
        super().__init__(config.host, config.port, ServiceMetrics())
        self.config = config
        self._shards: Dict[str, _ShardState] = {}
        for spec in config.shards:
            shard_id = parse_shard_spec(spec)
            if shard_id in self._shards:
                continue
            host, _, port_s = shard_id.rpartition(":")
            conn = AsyncShardConnection(
                host,
                int(port_s),
                timeout=config.timeout,
                connect_timeout=config.connect_timeout,
                connect_retries=config.connect_retries,
                connect_backoff=config.connect_backoff,
            )
            self._shards[shard_id] = _ShardState(shard_id, conn)
        self._corpus_view: Optional[Dict[str, Any]] = None
        self._ops = {
            "align": self._op_align,
            "search": self._op_search,
            "register": self._op_register,
            "corpus": self._op_corpus,
            "matstore-lookup": self._op_matstore_lookup,
            "status": self._op_status,
            "healthz": self._op_healthz,
            "metrics": self._op_metrics,
            "shutdown": self._op_shutdown,
        }

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shards)

    async def _aclose_extra(self) -> None:
        await asyncio.gather(
            *(st.conn.aclose() for st in self._shards.values()),
            return_exceptions=True,
        )

    # -- health ------------------------------------------------------------
    def _candidates(self) -> List[str]:
        """Shards eligible for routing: up, or down past the cooldown
        (optimistic reinclusion — a still-dead shard fails fast and goes
        straight back down)."""
        now = time.monotonic()
        return [
            sid
            for sid, st in self._shards.items()
            if st.down_since is None
            or now - st.down_since >= self.config.probe_cooldown
        ]

    def _record_success(self, st: _ShardState) -> None:
        st.consecutive_failures = 0
        if st.down_since is not None:
            st.down_since = None
            self.metrics.inc("shards_recovered")

    def _record_failure(self, st: _ShardState, exc: Exception) -> None:
        st.failures += 1
        st.consecutive_failures += 1
        st.last_error = f"{type(exc).__name__}: {exc}"
        self.metrics.inc("shard_failures")
        self.metrics.inc(f"shard_failures_{st.id}")
        if st.consecutive_failures >= self.config.down_after:
            if st.down_since is None:
                self.metrics.inc("shards_marked_down")
            st.down_since = time.monotonic()

    async def _shard_request(
        self,
        st: _ShardState,
        payload: Dict[str, Any],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One tracked sub-request: health accounting + latency histogram."""
        st.requests += 1
        t0 = time.perf_counter()
        try:
            response = await st.conn.request(payload, timeout)
        except ServiceUnavailable as exc:
            self._record_failure(st, exc)
            raise
        except ServiceError:
            # a typed reply (bad-request, not-found, overloaded) means
            # the shard is alive and answering
            self._record_success(st)
            self.metrics.observe(f"shard_{st.id}", time.perf_counter() - t0)
            raise
        self._record_success(st)
        self.metrics.observe(f"shard_{st.id}", time.perf_counter() - t0)
        return response

    async def _request_with_failover(
        self, order: Sequence[str], payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Try shards in preference order until one answers.

        Only transport failures (:class:`ServiceUnavailable`) fail over
        — registrations are replicated, so any shard *can* serve any
        pair; semantic errors propagate from the first shard that is
        actually reachable."""
        last: Optional[ServiceUnavailable] = None
        for k, sid in enumerate(order):
            if k:
                self.metrics.inc("failover_retries")
            try:
                return await self._shard_request(self._shards[sid], payload)
            except ServiceUnavailable as exc:
                last = exc
        raise ServiceUnavailable(
            f"op {payload.get('op')!r} failed on every reachable shard "
            f"({len(order)} tried): {last}"
        )

    # -- corpus view -------------------------------------------------------
    async def _get_corpus_view(self) -> Dict[str, Any]:
        """The cached corpus view (ordered hashes + names), read-one from
        the first reachable shard; invalidated by coordinator-side
        registers and by drift detected in status probes."""
        if self._corpus_view is not None:
            return self._corpus_view
        order = self._candidates() or list(self._shards)
        last: Optional[ServiceError] = None
        for sid in order:
            st = self._shards[sid]
            try:
                response = await self._shard_request(st, {"op": "corpus"})
            except ServiceError as exc:
                last = exc
                continue
            view = response["result"]
            st.generation = view.get("generation")
            st.fingerprint = view.get("fingerprint")
            self._corpus_view = view
            self.metrics.inc("corpus_view_reads")
            return view
        raise ServiceUnavailable(
            f"cannot read the corpus view from any shard: {last}"
        )

    @staticmethod
    def _resolve_in_view(view: Dict[str, Any], ref: str) -> Optional[str]:
        """A corpus content hash for ``ref`` (name, hash, or unambiguous
        prefix), or None when the view cannot resolve it."""
        chains = view.get("chains", [])
        for c in chains:
            if c["name"] == ref or c["hash"] == ref:
                return c["hash"]
        if len(ref) >= _MIN_PREFIX:
            matches = [c["hash"] for c in chains if c["hash"].startswith(ref)]
            if len(matches) == 1:
                return matches[0]
        return None

    def _route_order(self, key: str) -> List[str]:
        candidates = self._candidates()
        if not candidates:
            raise ServiceUnavailable(
                f"no reachable shards (of {len(self._shards)})"
            )
        return rendezvous_rank(key, candidates)

    @staticmethod
    def _forwardable(payload: Dict[str, Any]) -> Dict[str, Any]:
        return {k: v for k, v in payload.items() if k != "id"}

    # -- routed single-target ops -------------------------------------------
    def _pair_route_key(self, view: Dict[str, Any], payload: Dict[str, Any]) -> str:
        """The ownership key of a pair op: the target chain's content
        hash when the corpus view resolves it (so ``align(q, hit)``
        lands on the shard whose search cache already holds that pair),
        else the raw reference — still deterministic, just unwarmed."""
        ref_b = payload.get("b")
        if not isinstance(ref_b, str) or not ref_b:
            return ""
        return self._resolve_in_view(view, ref_b) or ref_b

    async def _op_align(self, payload: Dict[str, Any]):
        view = await self._get_corpus_view()
        key = self._pair_route_key(view, payload)
        response = await self._request_with_failover(
            self._route_order(key), self._forwardable(payload)
        )
        return response["result"], response.get("cached")

    async def _op_matstore_lookup(self, payload: Dict[str, Any]):
        view = await self._get_corpus_view()
        key = self._pair_route_key(view, payload)
        response = await self._request_with_failover(
            self._route_order(key), self._forwardable(payload)
        )
        return response["result"], response.get("cached")

    # -- replicated register --------------------------------------------------
    async def _op_register(self, payload: Dict[str, Any]):
        body = self._forwardable(payload)
        now = time.monotonic()
        attempted: List[_ShardState] = []
        skipped: Dict[str, str] = {}
        for sid, st in self._shards.items():
            if (
                st.down_since is not None
                and now - st.down_since < self.config.probe_cooldown
            ):
                # a down shard misses the write; the drift shows up in
                # status fingerprints when it comes back
                skipped[sid] = "down; write skipped"
                self.metrics.inc("register_skipped_down")
            else:
                attempted.append(st)
        outcomes = await asyncio.gather(
            *(self._shard_request(st, body) for st in attempted),
            return_exceptions=True,
        )
        ok: List[Dict[str, Any]] = []
        failures: Dict[str, str] = dict(skipped)
        semantic: Optional[Exception] = None
        for st, outcome in zip(attempted, outcomes):
            if isinstance(outcome, ServiceUnavailable):
                failures[st.id] = str(outcome)
            elif isinstance(outcome, ServiceError):
                semantic = outcome
                failures[st.id] = str(outcome)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                ok.append(outcome["result"])
        self._corpus_view = None  # the corpus (may have) changed
        if not ok:
            if semantic is not None:
                raise semantic
            raise ServiceUnavailable(
                "register replicated to 0/"
                f"{len(self._shards)} shards: {failures}"
            )
        self.metrics.inc("registers_replicated")
        result = dict(ok[0])
        result["replicated"] = len(ok)
        result["shards"] = len(self._shards)
        if failures:
            # typed partial-result warning: the write landed somewhere,
            # but not everywhere — operators see exactly where
            result["partial"] = {
                "failed_shards": sorted(failures),
                "errors": failures,
            }
            self.metrics.inc("partial_results")
            self.metrics.inc("register_partial")
        return result, None

    # -- scatter-gather search ------------------------------------------------
    async def _op_search(self, payload: Dict[str, Any]):
        from repro.psc.search import rank_hits

        view = await self._get_corpus_view()
        hashes = [c["hash"] for c in view.get("chains", [])]
        if not hashes:
            raise BadRequest("the search corpus is empty")
        method_name = payload.get("method", "tmalign")
        method, params_hash = resolve_method(method_name, payload.get("params"))
        top = parse_positive_int(payload, "top", 10)
        query_ref = payload.get("query")
        exclude_self = bool(payload.get("exclude_self", True))
        if exclude_self and isinstance(query_ref, str):
            # drop the query's own hash from the scatter so no shard is
            # handed a slice that excludes down to nothing
            query_hash = self._resolve_in_view(view, query_ref)
            if query_hash is not None:
                hashes = [h for h in hashes if h != query_hash]
        if not hashes:
            raise BadRequest("the search corpus is empty")
        candidates = self._candidates()
        if not candidates:
            raise ServiceUnavailable(
                f"no reachable shards (of {len(self._shards)})"
            )
        parts = [
            (sid, owned)
            for sid, owned in partition_keys(hashes, candidates).items()
            if owned
        ]
        self.metrics.inc("searches_fanned")
        self.metrics.inc("search_fanout_width_total", len(parts))
        self.metrics.set_gauge("last_search_fanout", len(parts))
        base = self._forwardable(payload)

        async def run_part(sid: str, owned: List[str]) -> Dict[str, Any]:
            sub = dict(base)
            sub["targets"] = owned
            sub["top"] = min(top, len(owned))
            # the owner first, every other reachable shard as fallback:
            # registrations are replicated, so a re-routed slice returns
            # the same scores (just without the owner's warm cache)
            order = [sid] + [s for s in candidates if s != sid]
            return await self._request_with_failover(order, sub)

        outcomes = await asyncio.gather(
            *(run_part(sid, owned) for sid, owned in parts),
            return_exceptions=True,
        )
        gathered: List[Dict[str, Any]] = []
        failed_shards: List[str] = []
        targets_missing = 0
        for (sid, owned), outcome in zip(parts, outcomes):
            if isinstance(outcome, ServiceOverloaded):
                # propagate backpressure instead of re-routing load onto
                # the remaining (equally busy) shards
                self.metrics.inc("search_shed")
                raise outcome
            if isinstance(outcome, ServiceUnavailable):
                failed_shards.append(sid)
                targets_missing += len(owned)
                continue
            if isinstance(outcome, BaseException):
                raise outcome
            gathered.append(outcome)
        if not gathered:
            raise ServiceUnavailable(
                f"search failed on every shard slice: {sorted(failed_shards)}"
            )
        rows: List[Tuple[str, Dict[str, float]]] = []
        hash_by_name: Dict[str, str] = {}
        corpus_total = 0
        from_cache = 0
        query_hash_out = None
        pf_promoted = 0
        pf_demoted = 0
        pf_keep = None
        for response in gathered:
            r = response["result"]
            query_hash_out = r["query"]
            corpus_total += r["corpus"]
            from_cache += r["from_cache"]
            for hit in r["hits"]:
                rows.append((hit["chain"], hit["scores"]))
                hash_by_name[hit["chain"]] = hit["hash"]
            if "prefilter" in r:
                pf_keep = r["prefilter"]["keep"]
                pf_promoted += r["prefilter"]["promoted"]
                pf_demoted += r["prefilter"]["demoted"]
        hits = rank_hits(rows, method)
        result: Dict[str, Any] = {
            "query": query_hash_out,
            "method": method_name,
            "params_hash": params_hash,
            "corpus": corpus_total,
            "from_cache": from_cache,
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
        if pf_keep is not None:
            result["prefilter"] = {
                "keep": pf_keep,
                "promoted": pf_promoted,
                "demoted": pf_demoted,
            }
        if failed_shards:
            # typed partial-result warning: these slices were lost even
            # after failover — the ranking above covers the rest
            result["partial"] = {
                "failed_shards": sorted(failed_shards),
                "targets_missing": targets_missing,
            }
            self.metrics.inc("partial_results")
            self.metrics.inc("search_partial")
        return result, from_cache == corpus_total and corpus_total > 0

    # -- coordinator-level ops ------------------------------------------------
    async def _op_corpus(self, payload: Dict[str, Any]):
        return await self._get_corpus_view(), None

    async def _op_status(self, payload: Dict[str, Any]):
        if payload.get("run_id"):
            raise BadRequest(
                "durable-run status is per-shard; query the shard directly"
            )
        probes = await asyncio.gather(
            *(
                self._shard_request(st, {"op": "status"}, timeout=5.0)
                for st in self._shards.values()
            ),
            return_exceptions=True,
        )
        shards: Dict[str, Any] = {}
        fingerprints: set = set()
        reachable = 0
        for st, probe in zip(self._shards.values(), probes):
            info: Dict[str, Any] = {
                "reachable": not isinstance(probe, BaseException),
                "down": st.down_since is not None,
                "requests": st.requests,
                "failures": st.failures,
                "consecutive_failures": st.consecutive_failures,
            }
            if isinstance(probe, BaseException):
                info["error"] = st.last_error or str(probe)
            else:
                reachable += 1
                r = probe["result"]
                st.generation = r.get("registry_generation")
                st.fingerprint = r.get("corpus_fingerprint")
                info["dataset"] = r.get("dataset")
                info["corpus"] = r.get("corpus")
                info["registry_generation"] = st.generation
                info["corpus_fingerprint"] = st.fingerprint
                if st.fingerprint:
                    fingerprints.add(st.fingerprint)
            shards[st.id] = info
        drift = len(fingerprints) > 1
        view = self._corpus_view
        if drift or (
            view is not None
            and fingerprints
            and view.get("fingerprint") not in fingerprints
        ):
            # shards moved underneath the cached view (e.g. a register
            # sent straight to one shard): re-read before the next scatter
            self._corpus_view = None
            self.metrics.inc("corpus_view_invalidated")
        if drift:
            self.metrics.inc("drift_detected")
        counters = self.metrics.snapshot()["counters"]
        return (
            {
                "status": (
                    "ok"
                    if reachable == len(self._shards) and not drift
                    else "degraded"
                ),
                "coordinator": True,
                "topology": sorted(self._shards),
                "shards_total": len(self._shards),
                "shards_reachable": reachable,
                "drift": drift,
                "shards": shards,
                "partial_results": counters.get("partial_results", 0),
                "failover_retries": counters.get("failover_retries", 0),
            },
            None,
        )

    async def _op_healthz(self, payload: Dict[str, Any]):
        healthy = sum(
            1 for st in self._shards.values() if st.down_since is None
        )
        return (
            {
                "status": "ok" if healthy == len(self._shards) else "degraded",
                "coordinator": True,
                "shards_total": len(self._shards),
                "shards_healthy": healthy,
                "uptime_seconds": round(self.metrics.uptime_seconds, 3),
                "pid": os.getpid(),
            },
            None,
        )

    async def _op_metrics(self, payload: Dict[str, Any]):
        snap = self.metrics.snapshot()
        counters = snap["counters"]
        fanned = counters.get("searches_fanned", 0)
        snap["fanout"] = {
            "searches": fanned,
            "mean_width": (
                round(counters.get("search_fanout_width_total", 0) / fanned, 3)
                if fanned
                else 0.0
            ),
        }
        snap["topology"] = sorted(self._shards)
        snap["shards"] = {
            st.id: {
                "requests": st.requests,
                "failures": st.failures,
                "consecutive_failures": st.consecutive_failures,
                "down": st.down_since is not None,
                "last_error": st.last_error,
                "registry_generation": st.generation,
                "corpus_fingerprint": st.fingerprint,
            }
            for st in self._shards.values()
        }
        return snap, None

    async def _op_shutdown(self, payload: Dict[str, Any]):
        result: Dict[str, Any] = {"stopping": True}
        if payload.get("broadcast"):
            outcomes = await asyncio.gather(
                *(
                    self._shard_request(st, {"op": "shutdown"}, timeout=5.0)
                    for st in self._shards.values()
                ),
                return_exceptions=True,
            )
            result["shards_stopped"] = sum(
                1 for o in outcomes if not isinstance(o, BaseException)
            )
        self.request_stop()
        return result, None
