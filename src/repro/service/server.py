"""The configuration-serving core and its HTTP front end.

:class:`ConfigurationService` turns the one-shot generation pipeline
into a long-running concurrent service. Each request travels::

    rate limit -> lifecycle admit -> result memo -> admission slot
        -> generation single-flight -> warm engine -> memo put

* the **rate limiter** charges the caller's token bucket;
* the **lifecycle** refuses requests once draining has begun;
* the **result memo** is a small in-memory LRU of finished response
  payloads — a repeat of a recently served request costs no pipeline
  slot at all;
* the **admission controller** bounds how many requests occupy the
  pipeline concurrently (policy: reject / block / shed-oldest);
* the **generation single-flight** coalesces concurrent pipeline runs
  keyed on the source hash (:func:`content_fingerprint_of_sources`,
  equal to ``load_model(*sources).content_fingerprint`` without a
  parse) plus the semantic options, so N identical in-flight requests
  execute the pipeline exactly once and share one byte-identical
  payload;
* the **warm engine** is the service's only generator: the leader
  hands the sources to a warm per-option-set
  :class:`IncrementalEngine`. Its model session reparses only the
  sources that changed, and an edited source set regenerates only the
  artifacts whose model subtree actually changed; the response reports
  the split via ``X-Repro-Reused`` / ``X-Repro-Regenerated`` headers.
  The payload itself stays deterministic — provenance travels in
  headers, never in the bundle.

:class:`ServiceHTTPServer` (a stdlib ``ThreadingHTTPServer``) exposes
the service as::

    POST /v1/generate   SysML source in, manifest bundle out
    GET  /healthz       lifecycle state (503 while draining/stopped)
    GET  /metrics       the full repro.obs registry snapshot
    GET  /cache/stats   artifact-cache statistics

Response payloads are *deterministic*: the bundle carries manifests,
intermediate configs and count-only summary data but no wall-clock
timings, so every caller of an identical request — coalesced or not —
receives byte-identical bytes (timings travel in response headers).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ..cache import ArtifactCache
from ..codegen.incremental import IncrementalEngine
from ..codegen.options import OptionError, PipelineOptions
from ..codegen.pipeline import GenerationResult
from ..faults import FaultInjected, fault_point
from ..fingerprint import SERVICE_GENERATE_SALT, fingerprint
from ..obs import METRICS
from ..sysml import content_fingerprint_of_sources
from ..sysml.errors import SysMLError
from .admission import (AdmissionController, AdmissionError, POLICY_REJECT,
                        RateLimiter)
from .lifecycle import ServiceLifecycle
from .singleflight import SingleFlight

_REQUESTS = METRICS.counter("service.requests")
_RESPONSES = METRICS.counter("service.responses")
_ERRORS = METRICS.counter("service.errors")
_EXECUTIONS = METRICS.counter("service.pipeline_executions")
_MEMO_HITS = METRICS.counter("service.memo_hits")
_LATENCY = METRICS.histogram("service.request_seconds")

#: How many per-option-set incremental engines the service keeps warm.
#: Each engine holds one parsed model session, so this bounds memory.
MAX_ENGINES = 4

#: Keys of ``options`` overrides a request may carry — exactly the
#: output-shaping knobs; the cache settings stay server-side.
REQUEST_OPTION_KEYS = ("capacity", "namespace", "broker_url",
                      "database_url", "validate")


#: Largest request body either HTTP front end reads. The largest
#: in-repo request, the x100 mega-factory sources as JSON, is 37.4 MB.
MAX_BODY_BYTES = 64 * 1024 * 1024


class BadRequest(Exception):
    """A malformed request body or unknown option (HTTP 400)."""

    status = 400
    code = "bad-request"


class BadOption(BadRequest):
    """A request option of the wrong type or range (HTTP 400)."""

    code = "bad-option"


class PayloadTooLarge(BadRequest):
    """A request body over :data:`MAX_BODY_BYTES` (HTTP 413)."""

    status = 413
    code = "payload-too-large"


def parse_generate_body(body: bytes, content_type: str | None
                        ) -> tuple[list[str], dict | None]:
    """Decode one ``POST /v1/generate`` body into ``(sources, overrides)``.

    Shared by the worker-facing handler here and the sharded router's
    front-end handler (:mod:`repro.service.router`) so both tiers accept
    exactly the same wire format: a JSON object carrying ``sources``
    (or a single ``source``) plus optional ``options``, or a plain-text
    body treated as one SysML document. Raises :class:`BadRequest`.
    """
    media = (content_type or "").split(";")[0].strip().lower()
    if media != "application/json":
        source = body.decode("utf-8", errors="replace")
        if not source.strip():
            raise BadRequest("empty request body")
        return [source], None
    try:
        document = json.loads(body)
    except ValueError as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from exc
    if not isinstance(document, dict):
        raise BadRequest("JSON body must be an object")
    sources = document.get("sources")
    if sources is None and "source" in document:
        sources = [document["source"]]
    if not isinstance(sources, list) or not sources \
            or not all(isinstance(s, str) for s in sources):
        raise BadRequest(
            "body must carry 'sources': [str, ...] (or 'source')")
    overrides = document.get("options")
    if overrides is not None and not isinstance(overrides, dict):
        raise BadRequest("'options' must be an object")
    return sources, overrides


def request_options(base: PipelineOptions,
                    overrides: dict | None) -> PipelineOptions:
    """*base* with one request's ``options`` overrides applied — the one
    check the worker and the router share. Raises :class:`BadRequest`
    for a key outside :data:`REQUEST_OPTION_KEYS` and :class:`BadOption`
    for a value :class:`PipelineOptions` refuses."""
    if not overrides:
        return base
    unknown = set(overrides) - set(REQUEST_OPTION_KEYS)
    if unknown:
        raise BadRequest(
            f"unknown option(s): {', '.join(sorted(unknown))}; "
            f"requests may set {', '.join(REQUEST_OPTION_KEYS)}")
    try:
        return base.replace(**overrides)
    except OptionError as exc:
        raise BadOption(str(exc)) from exc


def semantic_options(options: PipelineOptions) -> dict[str, object]:
    """The request-settable options of *options*: part of every
    single-flight, memo and routing key, and echoed in each bundle."""
    return {key: getattr(options, key) for key in REQUEST_OPTION_KEYS}


def request_key(model_fingerprint: str, options: PipelineOptions) -> str:
    """The one key of a generation request: its result memo entry, its
    single-flight and, in the sharded tier, its routing key."""
    return fingerprint(model_fingerprint, semantic_options(options),
                       salt=SERVICE_GENERATE_SALT)


def bundle_from_result(result: GenerationResult, model_fingerprint: str,
                       options: PipelineOptions) -> dict[str, object]:
    """The deterministic manifest bundle for one generation result.

    Deliberately excludes timings so coalesced followers, memo hits and
    fresh executions of the same request all serialize identically.
    """
    return {
        "fingerprint": model_fingerprint,
        "options": semantic_options(options),
        "summary": {
            "opcua_servers": result.opcua_server_count,
            "opcua_clients": result.opcua_client_count,
            "config_size_kb": round(result.config_size_kb, 1),
            "machines": len(result.machine_configs),
            "manifest_files": len(result.manifests),
        },
        "manifests": result.manifests,
        "intermediate": {
            "machine_configs": result.machine_configs,
            "server_configs": result.server_configs,
            "client_configs": result.client_configs,
            "storage_configs": result.storage_configs,
        },
    }


def bundle_bytes(result: GenerationResult, model_fingerprint: str,
                 options: PipelineOptions) -> bytes:
    return json.dumps(bundle_from_result(result, model_fingerprint,
                                         options),
                      indent=2).encode("utf-8")


class ConfigurationService:
    """Thread-safe serving facade over the generation pipeline."""

    def __init__(self, options: PipelineOptions | None = None, *,
                 max_inflight: int = 8, policy: str = POLICY_REJECT,
                 block_deadline: float = 10.0, max_queue: int | None = None,
                 rate: float = 0.0, burst: float | None = None,
                 memo_entries: int = 64, drain_deadline: float = 10.0):
        base = options if options is not None else PipelineOptions()
        if base.tracer is not None:
            # a Tracer's span stack is single-threaded; concurrent runs
            # sharing one would interleave, so the service drops it
            base = base.replace(tracer=None)
        self.options = base
        #: The artifact cache behind ``/cache/stats`` (``None`` without
        #: a ``cache_dir``); the engines open the same directory.
        self.cache = ArtifactCache(base.cache_dir, base.cache_max_bytes) \
            if base.cache_dir is not None else None
        self.admission = AdmissionController(
            max_inflight, policy=policy, block_deadline=block_deadline,
            max_queue=max_queue)
        self.limiter = RateLimiter(rate, burst)
        self.lifecycle = ServiceLifecycle()
        self.drain_deadline = drain_deadline
        self.started_monotonic = time.monotonic()
        self._generate_flight = SingleFlight()
        self._memo: OrderedDict[str, bytes] = OrderedDict()
        self._memo_entries = memo_entries
        self._memo_lock = threading.Lock()
        #: Warm incremental engines, one per semantic-options set.
        #: Each slot pairs the engine with its own lock: a ModelSession
        #: mutates state on update, so runs against one engine must be
        #: serialized even when the sources (and thus the generation
        #: single-flight keys) differ.
        self._engines: OrderedDict[
            str, tuple[IncrementalEngine, threading.Lock]] = OrderedDict()
        #: Requests each pooled engine has served, for eviction.
        self._engine_uses: dict[str, int] = {}
        self._engines_lock = threading.Lock()
        #: Captured by the drain's flush hook — the service's final
        #: telemetry, available after shutdown for reporting.
        self.final_metrics: dict[str, object] | None = None
        self.lifecycle.register_flush(self._flush_metrics)

    # -- request path ----------------------------------------------------

    def generate(self, sources, overrides: dict | None = None,
                 client: str = "anon") -> tuple[bytes, dict[str, object]]:
        """Serve one configuration request.

        *sources* is a list of SysML textual-notation documents;
        *overrides* optionally adjusts the semantic pipeline options
        for this request. Returns ``(payload, info)`` where *payload*
        is the serialized manifest bundle and *info* carries
        per-request facts (single-flight role, wall seconds, reuse
        counts) that must NOT leak into the deterministic payload.
        """
        _REQUESTS.inc()
        # chaos site: an active fault plan can declare this request
        # transiently unavailable (typed, retriable, Retry-After hint)
        fault_point("service.generate")
        self.limiter.check(client)
        self.lifecycle.request_started()
        started = time.perf_counter()
        try:
            options = request_options(self.options, overrides)
            # the warm engine parses only what changed; the source hash
            # is the fingerprint load_model would have given the model
            model_fingerprint = content_fingerprint_of_sources(
                list(sources))
            key = request_key(model_fingerprint, options)
            payload = self._memo_get(key)
            counts = None
            if payload is not None:
                _MEMO_HITS.inc()
                role = "memo"
            else:
                with self.admission.slot():
                    (payload, counts), leader = self._generate_flight.do(
                        key,
                        lambda: self._execute(options, list(sources),
                                              model_fingerprint))
                    role = "leader" if leader else "follower"
                self._memo_put(key, payload)
            seconds = time.perf_counter() - started
            _LATENCY.observe(seconds)
            _RESPONSES.inc()
            info: dict[str, object] = {
                "singleflight": role,
                "seconds": seconds,
            }
            if counts is not None:
                info["reused"], info["regenerated"] = counts
            return payload, info
        finally:
            self.lifecycle.request_finished()

    def _engine_slot(self, options: PipelineOptions):
        """The warm incremental engine for one semantic-options set.

        A small pool: each engine carries a full model session, so a
        service seeing many distinct option sets evicts engines rather
        than accumulating sessions without bound. The victim is the
        least recently used engine that has served a single request,
        or the least recently used engine when every other one has
        served more. A stream of one-off option sets (a new
        namespace per tenant, say) then churns through one slot
        instead of evicting the engine a returning client keeps warm,
        whose next edit would otherwise pay a cold rebuild.
        """
        key = fingerprint(semantic_options(options),
                          salt=SERVICE_GENERATE_SALT)
        with self._engines_lock:
            slot = self._engines.get(key)
            if slot is None:
                slot = (IncrementalEngine(options), threading.Lock())
                self._engines[key] = slot
                self._engine_uses[key] = 1
                while len(self._engines) > MAX_ENGINES:
                    others = [other for other in self._engines
                              if other != key]
                    victim = next((other for other in others
                                   if self._engine_uses[other] == 1),
                                  others[0])
                    del self._engines[victim]
                    del self._engine_uses[victim]
            else:
                self._engines.move_to_end(key)
                self._engine_uses[key] += 1
            return slot

    def _execute(self, options: PipelineOptions, sources: list[str],
                 model_fingerprint: str
                 ) -> tuple[bytes, tuple[int, int]]:
        """One real pipeline execution (the single-flight leader path):
        the warm engine builds the model from *sources* itself.

        Returns ``(payload, counts)`` where *counts* is the
        ``(reused, regenerated)`` artifact provenance pair. The whole
        tuple is the single-flight value, so coalesced followers see
        the leader's reuse counts too.
        """
        _EXECUTIONS.inc()
        engine, lock = self._engine_slot(options)
        with lock:
            result = engine.generate(*sources)
        states = list(result.provenance.values())
        counts = (states.count("reused"), states.count("regenerated"))
        return (bundle_bytes(result, model_fingerprint, options), counts)

    # -- result memo -----------------------------------------------------

    def _memo_get(self, key: str) -> bytes | None:
        if not self._memo_entries:
            return None
        with self._memo_lock:
            payload = self._memo.get(key)
            if payload is not None:
                self._memo.move_to_end(key)
            return payload

    def _memo_put(self, key: str, payload: bytes) -> None:
        if not self._memo_entries:
            return
        with self._memo_lock:
            self._memo[key] = payload
            self._memo.move_to_end(key)
            while len(self._memo) > self._memo_entries:
                self._memo.popitem(last=False)

    # -- introspection ---------------------------------------------------

    def health(self) -> dict[str, object]:
        return {
            "status": self.lifecycle.state,
            "active_requests": self.lifecycle.active,
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "policy": self.admission.policy,
            "max_inflight": self.admission.max_inflight,
            "uptime_seconds": round(
                time.monotonic() - self.started_monotonic, 3),
        }

    def cache_stats(self) -> dict[str, object] | None:
        return self.cache.stats() if self.cache is not None else None

    # -- shutdown --------------------------------------------------------

    def drain(self, deadline: float | None = None):
        """Graceful drain (see :mod:`repro.service.lifecycle`)."""
        effective = deadline if deadline is not None \
            else self.drain_deadline
        return self.lifecycle.drain(effective)

    def _flush_metrics(self) -> None:
        self.final_metrics = METRICS.snapshot()


# -- HTTP front end ------------------------------------------------------

#: HTTP status per admission error code; everything here is retriable.
_STATUS_BY_CODE = {
    "rate-limited": 429,
    "rejected": 503,
    "shed": 503,
    "deadline-exceeded": 503,
    "draining": 503,
}


class JSONRequestHandler(BaseHTTPRequestHandler):
    """The HTTP plumbing the worker and router front ends share: one
    request-body reader and the JSON response / typed-error writers."""

    protocol_version = "HTTP/1.1"
    #: Counter bumped by every error response.
    error_counter = _ERRORS

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # request logging is the metrics registry's job

    def _read_body(self) -> bytes:
        """The request body; :class:`BadRequest` for a ``Content-Length``
        that is not a string of ASCII digits, :class:`PayloadTooLarge`
        for one above :data:`MAX_BODY_BYTES`. The unread body would
        desynchronize the connection, so either error also closes it."""
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True
            raise BadRequest(f"invalid Content-Length: {header!r}")
        digits = header.lstrip("0") or "0"
        # compare digit counts first: int() refuses over 4300 digits
        if len(digits) > len(str(MAX_BODY_BYTES)) \
                or int(digits) > MAX_BODY_BYTES:
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body exceeds the {MAX_BODY_BYTES}-byte limit")
        return self.rfile.read(int(digits))

    def _send_bytes(self, status: int, payload: bytes, *,
                    content_type: str = "application/json",
                    extra_headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, document: object, *,
                   extra_headers: dict[str, str] | None = None) -> None:
        self._send_bytes(
            status, json.dumps(document, indent=2,
                               default=str).encode("utf-8"),
            extra_headers=extra_headers)

    def _send_error(self, status: int, code: str, message: str, *,
                    retriable: bool | None = None,
                    retry_after: float | None = None) -> None:
        self.error_counter.inc()
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(retry_after)
        self._send_json(status, {
            "error": {
                "code": code,
                "message": message,
                "retriable": bool(retriable) if retriable is not None
                else status in (429, 503),
            },
        }, extra_headers=headers)


class ServiceRequestHandler(JSONRequestHandler):
    """Routes the four endpoints onto the service object."""

    server_version = "repro-service/1"

    @property
    def service(self) -> ConfigurationService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:
        path = urlsplit(self.path).path
        if path == "/healthz":
            health = self.service.health()
            status = 200 if health["status"] == "serving" else 503
            self._send_json(status, health)
        elif path == "/metrics":
            self._send_json(200, METRICS.snapshot())
        elif path == "/cache/stats":
            stats = self.service.cache_stats()
            self._send_json(200, stats if stats is not None
                            else {"cache": None})
        else:
            self._send_error(404, "not-found", f"no route for {path}")

    def do_POST(self) -> None:
        path = urlsplit(self.path).path
        if path != "/v1/generate":
            self._send_error(404, "not-found", f"no route for {path}")
            return
        try:
            sources, overrides = parse_generate_body(
                self._read_body(), self.headers.get("Content-Type"))
        except BadRequest as exc:
            self._send_error(exc.status, exc.code, str(exc))
            return
        client = self.headers.get("X-Client-Id") \
            or self.client_address[0]
        try:
            # chaos site: latency or injected 503s at the HTTP boundary
            fault_point("service.request")
            payload, info = self.service.generate(sources, overrides,
                                                  client=client)
        except FaultInjected as exc:
            self._send_error(503, exc.code, str(exc), retriable=True,
                             retry_after=getattr(exc, "retry_after", 1))
        except AdmissionError as exc:
            status = _STATUS_BY_CODE.get(exc.code, 503)
            self._send_error(status, exc.code, str(exc),
                             retriable=exc.retriable, retry_after=1)
        except BadRequest as exc:
            self._send_error(exc.status, exc.code, str(exc))
        except SysMLError as exc:
            self._send_error(400, "invalid-model", str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._send_error(500, "internal", f"{type(exc).__name__}: "
                                              f"{exc}")
        else:
            headers = {
                "X-Repro-Singleflight": str(info["singleflight"]),
                "X-Repro-Seconds": f"{info['seconds']:.6f}",
            }
            if "reused" in info:
                headers["X-Repro-Reused"] = str(info["reused"])
                headers["X-Repro-Regenerated"] = str(info["regenerated"])
            self._send_bytes(200, payload, extra_headers=headers)


class ServiceHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`ConfigurationService`.

    Pass port ``0`` to bind an ephemeral port; read it back from
    :attr:`port`. ``daemon_threads`` keeps stuck keep-alive connections
    from blocking interpreter exit after a drain.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 service: ConfigurationService):
        super().__init__(address, ServiceRequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def drain_and_shutdown(self, deadline: float | None = None):
        """Graceful stop: drain the service, then stop serve_forever.

        Returns the :class:`~repro.service.lifecycle.DrainReport`.
        Callable from any thread except the one inside
        ``serve_forever`` (the usual signal-handler arrangement).
        """
        report = self.service.drain(deadline)
        self.shutdown()
        return report
