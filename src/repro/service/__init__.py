"""Configuration-as-a-service: the concurrent serving layer.

The paper's pipeline runs once per invocation; this package keeps it
resident and shares it safely among many callers:

* :mod:`.singleflight` — concurrent identical requests execute the
  pipeline exactly once and share the result;
* :mod:`.admission` — bounded in-flight slots with ``reject`` /
  ``block`` / ``shed-oldest`` backpressure plus a per-client token
  bucket;
* :mod:`.lifecycle` — graceful drain (stop accepting, finish in-flight
  work, flush telemetry) with a deadline;
* :mod:`.server` — the :class:`ConfigurationService` core and a stdlib
  ``ThreadingHTTPServer`` front end (``POST /v1/generate``,
  ``GET /healthz``, ``GET /metrics``, ``GET /cache/stats``);
* :mod:`.client` — the small blocking :class:`ServiceClient` used by
  tests, the load benchmark and CI;
* :mod:`.ring` / :mod:`.worker` / :mod:`.router` — the sharded tier:
  a consistent-hash :class:`HashRing`, worker stacks (in-process or
  child ``repro serve`` processes) and the :class:`RouterService`
  front end with health probes, deterministic failover and
  cross-shard ``/metrics`` / ``/cache/stats`` aggregation.

Start a single node with ``repro serve``; start the sharded tier with
``repro serve --workers N``.
"""

from .admission import (AdmissionController, AdmissionError,
                        AdmissionRejected, AdmissionShed,
                        AdmissionTimeout, POLICIES, POLICY_BLOCK,
                        POLICY_REJECT, POLICY_SHED, RateLimited,
                        RateLimiter, ServiceDraining, TokenBucket)
from .client import RetriableServiceError, ServiceClient, ServiceError
from .lifecycle import (DrainReport, STATE_DRAINING, STATE_SERVING,
                        STATE_STOPPED, ServiceLifecycle)
from .ring import DEFAULT_VNODES, HashRing, RingEmpty
from .router import (RouterHTTPServer, RouterRequestHandler,
                     RouterService, TopologyDrainReport)
from .server import (BadOption, BadRequest, ConfigurationService,
                     ServiceHTTPServer, ServiceRequestHandler,
                     bundle_bytes, bundle_from_result,
                     parse_generate_body, request_key, request_options,
                     semantic_options)
from .singleflight import SingleFlight
from .worker import LocalWorker, WorkerEndpoint, WorkerProcess

__all__ = [
    "AdmissionController", "AdmissionError", "AdmissionRejected",
    "AdmissionShed", "AdmissionTimeout", "BadOption", "BadRequest",
    "ConfigurationService", "DEFAULT_VNODES", "DrainReport", "HashRing",
    "LocalWorker", "POLICIES", "POLICY_BLOCK",
    "POLICY_REJECT", "POLICY_SHED", "RateLimited", "RateLimiter",
    "RetriableServiceError", "RingEmpty", "RouterHTTPServer",
    "RouterRequestHandler", "RouterService",
    "STATE_DRAINING", "STATE_SERVING", "STATE_STOPPED", "ServiceClient",
    "ServiceDraining", "ServiceError", "ServiceHTTPServer",
    "ServiceLifecycle", "ServiceRequestHandler", "SingleFlight",
    "TokenBucket", "TopologyDrainReport", "WorkerEndpoint",
    "WorkerProcess", "bundle_bytes", "bundle_from_result",
    "parse_generate_body", "request_key", "request_options",
    "semantic_options",
]
