"""Watch mode: the long-running front end over the incremental engine.

``repro-factory watch`` keeps an :class:`~repro.codegen.IncrementalEngine`
warm over a set of on-disk ``.sysml`` sources. Each poll it compares the
files' ``(mtime, size)`` signatures; when one changes it re-runs only the
dirty model subtrees, writes only the files whose bytes actually
changed, and — with a cluster attached — rolls the result out through
:func:`repro.k8s.deploy.apply_incremental` (changed ConfigMaps roll
their deployments; a rolled OPC UA server restarts its downstream
bridges and historians).

The session is built for testing: clock and sleep are injectable and
:meth:`WatchSession.poll` performs exactly one check-and-rebuild step,
so tests drive iterations without threads or real time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .codegen.incremental import IncrementalEngine
from .codegen.options import PipelineOptions
from .obs import METRICS
from .sysml.errors import SysMLError

_POLLS = METRICS.counter("watch.polls")
_REBUILDS = METRICS.counter("watch.rebuilds")
_FILES_WRITTEN = METRICS.counter("watch.files_written")


@dataclass
class WatchEvent:
    """One completed rebuild of a watch session."""

    iteration: int
    #: Watched files whose signature changed since the last event.
    changed_files: list[str]
    #: Artifact ids regenerated this round (``manifest:...`` etc.).
    regenerated: list[str]
    #: How many artifacts were byte-reused from the previous generation.
    reused: int
    #: Output files (re)written under the --out directory.
    written: list[Path] = field(default_factory=list)
    #: Rolling-apply report when a cluster is attached, else None.
    deployed: dict[str, object] | None = None
    seconds: float = 0.0
    #: The parse/validate error aborting this rebuild, if any. The
    #: previous good generation stays deployed and the session keeps
    #: watching — a broken intermediate save must not kill watch mode.
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class WatchSession:
    """Polls source files and incrementally rebuilds on change.

    Parameters
    ----------
    paths:
        The ``.sysml`` files to watch.
    options:
        Pipeline options for the inner incremental engine.
    out_dir:
        Optional directory for generated files; only changed files are
        rewritten after the first generation.
    cluster:
        Optional :class:`repro.k8s.Cluster`; the first generation
        deploys everything, later ones roll only regenerated manifests.
    interval:
        Seconds between polls in :meth:`run`.
    clock / sleep:
        Injectable time sources (tests pass fakes).
    """

    def __init__(self, paths, *, options: PipelineOptions | None = None,
                 out_dir: str | Path | None = None, cluster=None,
                 interval: float = 0.5,
                 clock=time.perf_counter, sleep=time.sleep):
        if not paths:
            raise ValueError("watch needs at least one source file")
        self.paths = [str(path) for path in paths]
        self.engine = IncrementalEngine(
            options if options is not None else PipelineOptions())
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.cluster = cluster
        self.interval = interval
        self._clock = clock
        self._sleep = sleep
        self.iterations = 0
        self._signatures: dict[str, tuple[int, int] | None] = {}
        self._written: dict[Path, str] = {}

    # -- change detection ------------------------------------------------

    def _signature(self, path: str) -> tuple[int, int] | None:
        try:
            stat = os.stat(path)
        except OSError:
            return None  # vanished mid-save; treated as a change
        return (stat.st_mtime_ns, stat.st_size)

    def changed_files(self) -> list[str]:
        """Watched files whose ``(mtime, size)`` moved since last poll."""
        changed = []
        for path in self.paths:
            signature = self._signature(path)
            if self._signatures.get(path, ()) != signature:
                self._signatures[path] = signature
                changed.append(path)
        return changed

    # -- one step --------------------------------------------------------

    def poll(self) -> WatchEvent | None:
        """One check-and-rebuild step; ``None`` when nothing changed."""
        _POLLS.inc()
        changed = self.changed_files()
        if not changed and self.iterations:
            return None
        started = self._clock()
        texts = []
        for path in self.paths:
            try:
                with open(path) as handle:
                    texts.append(handle.read())
            except OSError as exc:
                return self._failed(changed, f"{path}: {exc}", started)
        try:
            result = self.engine.generate(*texts, filenames=self.paths)
        except SysMLError as exc:
            return self._failed(changed, str(exc), started)
        _REBUILDS.inc()
        states = result.provenance
        regenerated = sorted(artifact for artifact, state in states.items()
                             if state == "regenerated")
        event = WatchEvent(
            iteration=self.iterations,
            changed_files=changed,
            regenerated=regenerated,
            reused=sum(1 for state in states.values() if state == "reused"))
        if self.out_dir is not None:
            event.written = self._write_changed(result)
        if self.cluster is not None:
            from .k8s.deploy import apply_incremental
            event.deployed = apply_incremental(self.cluster, result)
        self.iterations += 1
        event.seconds = self._clock() - started
        return event

    def _failed(self, changed, message, started) -> WatchEvent:
        event = WatchEvent(iteration=self.iterations, changed_files=changed,
                           regenerated=[], reused=0, error=message)
        self.iterations += 1
        event.seconds = self._clock() - started
        return event

    # -- partial artifact writes -----------------------------------------

    def _write_changed(self, result) -> list[Path]:
        """Rewrite only the output files whose content changed.

        Byte-reused artifacts keep their mtimes, so downstream
        file-watchers (including another WatchSession!) see exactly
        the real change set.
        """
        written: list[Path] = []
        for relative, text in result.files().items():
            path = self.out_dir / relative
            if self._written.get(path) == text and path.exists():
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            self._written[path] = text
            written.append(path)
        _FILES_WRITTEN.inc(len(written))
        return written

    # -- the loop --------------------------------------------------------

    def run(self, *, max_iterations: int | None = None,
            on_event=None) -> int:
        """Poll until *max_iterations* rebuilds happened (or forever).

        Returns how many rebuilds ran. *on_event* is called with each
        :class:`WatchEvent` — the CLI prints from there.
        """
        rebuilds = 0
        while max_iterations is None or rebuilds < max_iterations:
            event = self.poll()
            if event is not None:
                rebuilds += 1
                if on_event is not None:
                    on_event(event)
            if max_iterations is not None and rebuilds >= max_iterations:
                break
            self._sleep(self.interval)
        return rebuilds
