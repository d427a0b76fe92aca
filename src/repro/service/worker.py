"""Workers of the sharded serving tier.

A *worker* is one complete single-node service stack — a
:class:`~repro.service.server.ConfigurationService` behind a
:class:`~repro.service.server.ServiceHTTPServer` — that the router
(:mod:`repro.service.router`) forwards requests to. Two flavors share
the :class:`WorkerEndpoint` address shape:

* :class:`LocalWorker` — the stack in a thread of *this* process.
  Zero spawn cost, ideal for tests and the conformance oracles; the
  caveat is that all local workers share the process-wide
  :data:`repro.obs.METRICS` registry, so their ``/metrics`` snapshots
  overlap (cross-worker metric aggregation is only exact with
  process workers).
* :class:`WorkerProcess` — the stack as a child ``repro serve``
  process, the production shape ``repro serve --workers N`` runs.
  Each child owns its interpreter (real CPU parallelism on multi-core
  hosts), its own metrics registry, and writes its drain report to a
  JSON file the supervisor collects after exit.

Both expose ``start() / wait_ready() / drain() / stop()`` so the
router and the supervisor treat them uniformly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass

from ..codegen.options import PipelineOptions
from ..testkit.waiting import Deadline, wait_until
from .client import ServiceClient
from .lifecycle import DrainReport
from .server import ConfigurationService, ServiceHTTPServer


@dataclass(frozen=True)
class WorkerEndpoint:
    """Where one worker listens."""

    name: str
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class LocalWorker:
    """One in-process service stack serving on an ephemeral port."""

    def __init__(self, name: str, options: PipelineOptions | None = None,
                 *, host: str = "127.0.0.1", **service_kwargs):
        self.name = name
        self.host = host
        self.service = ConfigurationService(options, **service_kwargs)
        self._server: ServiceHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "LocalWorker":
        if self._server is not None:
            return self
        self._server = ServiceHTTPServer((self.host, 0), self.service)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"worker-{self.name}", daemon=True)
        self._thread.start()
        return self

    def wait_ready(self, timeout: float = 5.0) -> None:
        if self._server is None:
            raise RuntimeError(f"worker {self.name} not started")
        # the HTTP server is accepting as soon as the constructor
        # returns; nothing to poll for in-process

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError(f"worker {self.name} not started")
        return self._server.port

    @property
    def endpoint(self) -> WorkerEndpoint:
        return WorkerEndpoint(self.name, self.host, self.port)

    def drain(self, deadline: float | None = None) -> DrainReport:
        if self._server is None:
            raise RuntimeError(f"worker {self.name} not started")
        return self._server.drain_and_shutdown(deadline)

    def stop(self) -> None:
        """Hard stop (no drain) — simulates a worker crash."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server = None
        self._thread = None

    def close(self) -> None:
        if self._server is not None:
            if self.service.lifecycle.serving:
                self.drain(0.0)
            self.stop()

    def __enter__(self) -> "LocalWorker":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class WorkerProcess:
    """One ``repro serve`` child process on an ephemeral port.

    The child binds port 0, reports the real port through
    ``--port-file`` and its final drain outcome through
    ``--drain-report-file``; :meth:`drain` sends ``SIGTERM`` (the
    drain signal of the serve contract), waits for exit and reads the
    report back. Extra ``repro serve`` flags pass through verbatim via
    *serve_args* — notably ``--cache-dir`` pointing every worker at
    the shared content-addressed artifact store.
    """

    def __init__(self, name: str, *, host: str = "127.0.0.1",
                 serve_args: tuple[str, ...] | list[str] = (),
                 workdir: str | None = None,
                 clock=None, sleep=None):
        self.name = name
        self.host = host
        self.serve_args = tuple(serve_args)
        # injectable for scripted-clock tests; production uses the
        # monotonic clock and real sleeps via the waiting helpers
        self.clock = clock
        self.sleep = sleep
        self._owndir = None
        if workdir is None:
            self._owndir = tempfile.TemporaryDirectory(
                prefix=f"repro-worker-{name}-")
            workdir = self._owndir.name
        self.workdir = workdir
        self.port_file = os.path.join(workdir, f"{name}.port")
        self.report_file = os.path.join(workdir, f"{name}.drain.json")
        self.process: subprocess.Popen | None = None
        self._port: int | None = None

    def start(self) -> "WorkerProcess":
        if self.process is not None:
            return self
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            "--port-file", self.port_file,
            "--drain-report-file", self.report_file,
            *self.serve_args,
        ]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        return self

    def _read_port_file(self) -> bool:
        """One poll step: port file present, or child died trying."""
        if self.process.poll() is not None:
            output = (self.process.stdout.read()
                      if self.process.stdout else "")
            raise RuntimeError(
                f"worker {self.name} exited during startup "
                f"(rc={self.process.returncode}):\n{output}")
        try:
            with open(self.port_file) as handle:
                text = handle.read().strip()
        except OSError:
            return False
        if not text:
            return False
        self._port = int(text)
        return True

    def _probe_health(self) -> bool:
        """One ``/healthz`` probe (overridable in scripted tests)."""
        try:
            with ServiceClient(self.port, self.host,
                               timeout=2.0) as client:
                return client.health().get("status") == "serving"
        except OSError:
            return False

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the child serves ``/healthz`` 200.

        Both phases — the port-file poll and the health probe — draw
        down one shared :class:`~repro.testkit.waiting.Deadline`, so
        the call is bounded by *timeout* end to end (the raw-sleep
        loops this replaces each restarted the clock implicitly).
        """
        if self.process is None:
            raise RuntimeError(f"worker {self.name} not started")
        deadline = Deadline(timeout, clock=self.clock)
        if self._port is None:
            wait_until(
                self._read_port_file, deadline=deadline, interval=0.02,
                sleep=self.sleep,
                message=f"worker {self.name}: port file")
        wait_until(
            self._probe_health, deadline=deadline, interval=0.05,
            sleep=self.sleep,
            message=f"worker {self.name}: healthy /healthz")

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError(f"worker {self.name} has no port yet "
                               f"(call wait_ready)")
        return self._port

    @property
    def endpoint(self) -> WorkerEndpoint:
        return WorkerEndpoint(self.name, self.host, self.port)

    def terminate(self) -> None:
        """Send the drain signal (SIGTERM) without waiting."""
        if self.process is not None and self.process.poll() is None:
            self.process.terminate()

    def kill(self) -> None:
        """Hard-kill the child — the chaos path, no drain."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()

    def wait(self, timeout: float | None = None) -> int | None:
        if self.process is None:
            return None
        try:
            return self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            return None

    def drain(self, deadline: float | None = None) -> DrainReport | None:
        """SIGTERM, wait for exit, read back the child's drain report.

        Returns ``None`` when the child died without writing a report
        (crashed, killed, or never got to the drain).
        """
        if self.process is None:
            return None
        self.terminate()
        grace = (deadline if deadline is not None else 10.0) + 10.0
        if self.wait(grace) is None:
            self.kill()
            self.wait(5.0)
        try:
            with open(self.report_file) as handle:
                return DrainReport.from_summary(json.load(handle))
        except (OSError, ValueError, KeyError):
            return None

    def output(self) -> str:
        """Captured child stdout/stderr (after exit)."""
        if self.process is None or self.process.stdout is None:
            return ""
        return self.process.stdout.read()

    def close(self) -> None:
        if self.process is not None:
            if self.process.poll() is None:
                self.drain(0.0)
            if self.process.stdout is not None:
                self.process.stdout.close()
        if self._owndir is not None:
            self._owndir.cleanup()
            self._owndir = None

    def __enter__(self) -> "WorkerProcess":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
