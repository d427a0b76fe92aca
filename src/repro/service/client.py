"""A small blocking HTTP client for the configuration service.

Used by the tests, the load benchmark and the CI smoke job — and handy
as a reference for what a real caller sends. One
:class:`ServiceClient` wraps one keep-alive connection, so an instance
belongs to one thread; concurrent callers each create their own
(connections are cheap against the loopback interface).

Failures are *typed*: a 429/503 (or any body the server marks
``retriable``) raises :class:`RetriableServiceError` carrying the
server's ``Retry-After`` hint; every other non-2xx raises the plain
:class:`ServiceError`. Construct the client with a
:class:`~repro.resilience.RetryPolicy` and it backs off and retries
retriable failures itself (honouring ``Retry-After`` as a lower bound
on each delay); add a :class:`~repro.resilience.CircuitBreaker` and a
persistently failing service trips it, turning further calls into
immediate retriable :class:`~repro.resilience.CircuitOpen` errors
instead of doomed round trips.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException

from ..resilience import CircuitBreaker, RetryPolicy, retry_call


class ServiceError(Exception):
    """A non-2xx response from the service.

    ``retriable`` mirrors the server's judgment: 429/503 responses are
    safe to retry after backing off; 4xx others are not.
    """

    def __init__(self, status: int, code: str, message: str,
                 retriable: bool = False):
        self.status = status
        self.code = code
        self.retriable = retriable
        super().__init__(f"HTTP {status} [{code}]: {message}")


class RetriableServiceError(ServiceError):
    """A 429/503-class failure: back off and try again.

    ``retry_after`` is the server's ``Retry-After`` hint in seconds
    (``None`` when the server sent none) —
    :func:`repro.resilience.retry_call` uses it as a lower bound on
    the next backoff delay.
    """

    def __init__(self, status: int, code: str, message: str,
                 retry_after: float | None = None):
        super().__init__(status, code, message, retriable=True)
        self.retry_after = retry_after


class ServiceClient:
    """Blocking client for one ``repro serve`` endpoint."""

    def __init__(self, port: int, host: str = "127.0.0.1", *,
                 timeout: float = 30.0, client_id: str | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id
        self.retry = retry
        self.breaker = breaker
        self._conn: HTTPConnection | None = None

    # -- transport -------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port,
                                        timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict[str, str] | None = None
                ) -> tuple[int, dict[str, str], bytes]:
        """One round trip; returns ``(status, headers, body)``.

        Retries once on a dropped keep-alive connection (the server may
        have closed an idle one between calls).
        """
        send_headers = dict(headers or {})
        if self.client_id:
            send_headers.setdefault("X-Client-Id", self.client_id)
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body,
                             headers=send_headers)
                response = conn.getresponse()
                payload = response.read()
            except (HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
                continue
            return (response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    payload)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- endpoints -------------------------------------------------------

    def generate_raw(self, sources, options: dict | None = None
                     ) -> tuple[int, dict[str, str], bytes]:
        """``POST /v1/generate`` returning the raw response triple."""
        document: dict[str, object] = {"sources": list(sources)}
        if options:
            document["options"] = options
        return self.request(
            "POST", "/v1/generate",
            body=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"})

    @staticmethod
    def _retry_after(headers: dict[str, str]) -> float | None:
        value = headers.get("retry-after")
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            return None

    def _generate_once(self, sources, options: dict | None) -> dict:
        """One generate round trip, raising typed service errors."""
        if self.breaker is not None:
            self.breaker.allow()
        try:
            status, headers, body = self.generate_raw(sources, options)
        except (HTTPException, ConnectionError, OSError):
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        document = json.loads(body)
        if status == 200:
            if self.breaker is not None:
                self.breaker.record_success()
            return document
        error = document.get("error", {})
        code = error.get("code", "unknown")
        message = error.get("message",
                            body.decode("utf-8", errors="replace"))
        retriable = bool(error.get("retriable", status in (429, 503)))
        if retriable:
            # the service is struggling, not the request: a breaker
            # watching this client should see it as a failure
            if self.breaker is not None:
                self.breaker.record_failure()
            raise RetriableServiceError(
                status, code, message,
                retry_after=self._retry_after(headers))
        # a 4xx is the *request's* fault; the service answered fine
        if self.breaker is not None:
            self.breaker.record_success()
        raise ServiceError(status, code, message)

    def generate(self, sources, options: dict | None = None) -> dict:
        """Generate and return the parsed manifest bundle.

        Raises :class:`RetriableServiceError` on 429/503 (with the
        server's ``Retry-After``) and :class:`ServiceError` on any
        other non-200. With a ``retry`` policy configured, retriable
        failures (including :class:`~repro.resilience.CircuitOpen`)
        are retried with backoff before surfacing as
        :class:`~repro.resilience.RetryError`.
        """
        if self.retry is None:
            return self._generate_once(sources, options)
        return retry_call(lambda: self._generate_once(sources, options),
                          policy=self.retry,
                          describe="service.generate")

    def _get_document(self, path: str) -> dict:
        _, _, body = self.request("GET", path)
        return json.loads(body)

    def health(self) -> dict:
        """``GET /healthz`` (parsed body, whatever the status)."""
        return self._get_document("/healthz")

    def metrics(self) -> dict:
        return self._get_document("/metrics")

    def cache_stats(self) -> dict:
        return self._get_document("/cache/stats")
