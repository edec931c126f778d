"""The live supervisor: a scenario run operated as a long-lived service.

:class:`LiveService` is a :class:`~repro.persistence.runner.Run` session
plus a pacer plus an HTTP server -- it wraps any registered scenario in
the operational envelope the paper's vision calls for:

* the :class:`~repro.live.pacing.RealTimeExecutor` paces the kernel
  against the wall clock (telemetry-only: the journal stays byte-
  identical to a batch ``run_scenario`` at any speed factor);
* every event is journaled (the same run session the batch drivers
  use) and a checkpoint is saved every ``checkpoint_every`` wall seconds
  -- always between events -- so a SIGKILL'd service restarted on the
  same ``--out`` directory resumes from its last barrier via the
  standard ``Run.resume`` path (fast-forward + WAL truncate), without
  loss;
* the flight recorder stays armed for the whole run, and the SLO
  monitor (when the scenario wires one) drives ``/healthz``;
* reconfigurations (fault schedules, chaos specs) hot-load between
  events through :mod:`repro.live.reconfigure`, journaled as
  ``reconfig`` records and embedded in every later checkpoint's spec so
  resumed and replayed runs reproduce them exactly;
* SIGINT/SIGTERM request a *drain*: the executor stops at the next
  event boundary, a final checkpoint lands, any triggered incident
  flushes its bundle, and the journal is left open-ended -- exactly the
  state a restart resumes from.

Threading model: the supervisor steps the kernel in the calling thread;
the telemetry server renders in its own threads.  A single re-entrant
lock is held around every step and every render, so scrapes only ever
observe the system between events.
"""

from __future__ import annotations

import os
import threading
import time as _time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.live.pacing import POLL_INTERVAL_S, RealTimeExecutor
from repro.live.reconfigure import LiveLoadError, apply_payload, validate_payload
from repro.live.server import DASHBOARD_REFRESH_S, TelemetryServer
from repro.live.status import health_snapshot, status_snapshot
from repro.persistence.checkpoint import Checkpoint, CheckpointError, default_paths
from repro.persistence.runner import Run
from repro.persistence.scenarios import ScenarioSpec
from repro.schema import Field, load_document

#: Default wall seconds between periodic checkpoints.
CHECKPOINT_EVERY_S = 10.0

#: Wall seconds between reload-directory polls.
RELOAD_POLL_S = 0.5


class LiveService:
    """Run one scenario as an operable, crash-resumable service.

    ``out`` is the service's state directory (checkpoint + journal +
    incident bundles).  If it already holds a checkpoint for the same
    scenario, :meth:`start` resumes it instead of starting fresh.
    ``port=None`` disables the telemetry server (benches); ``port=0``
    binds an ephemeral port (tests).
    """

    def __init__(self, spec: ScenarioSpec, out: str,
                 speed: float = 1.0,
                 port: Optional[int] = 0,
                 checkpoint_every: float = CHECKPOINT_EVERY_S,
                 reload_dir: Optional[str] = None,
                 until: Optional[float] = None,
                 digest_every: int = 25,
                 clock: Callable[[], float] = _time.monotonic,
                 sleep: Callable[[float], None] = _time.sleep,
                 poll_interval: float = POLL_INTERVAL_S) -> None:
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive wall seconds")
        self.spec = spec
        self.out = out
        self.speed = speed
        self.port = port
        self.checkpoint_every = checkpoint_every
        self.reload_dir = reload_dir
        self.until = until
        self.digest_every = digest_every
        self._clock = clock
        self._sleep = sleep
        self._poll_interval = poll_interval

        self._lock = threading.RLock()
        self._drain_requested = False
        self._log: Optional[Callable[[str], None]] = None

        # Populated by start():
        self.system: Any = None
        self.monitor: Any = None
        self.flight: Any = None
        self.horizon: float = 0.0
        self.resumed = False
        self.executor: Optional[RealTimeExecutor] = None
        self.server: Optional[TelemetryServer] = None
        self.checkpoints_written = 0
        self.last_checkpoint_meta: Optional[Dict[str, Any]] = None
        self.hot_loads_applied: List[Dict[str, Any]] = []
        self.session: Optional[Run] = None
        self._paths = default_paths(out)
        self._last_checkpoint_wall: float = 0.0
        self._last_reload_wall: float = 0.0
        self._seen_reloads: set = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, log: Optional[Callable[[str], None]] = None
              ) -> "LiveService":
        """Build (or resume) the system, arm recording, start serving."""
        from repro.observability.flight import FlightRecorder

        self._log = log
        os.makedirs(self.out, exist_ok=True)
        checkpoint = self._load_checkpoint()
        if checkpoint is not None:
            name = checkpoint.scenario.get("name")
            if name != self.spec.name:
                raise CheckpointError(
                    f"state directory {self.out!r} holds a checkpoint for "
                    f"scenario {name!r}, not {self.spec.name!r}; use a "
                    "fresh --out directory")
            self.session = Run.resume(checkpoint, self._paths["journal"])
            self.spec = self.session.spec
            self.resumed = True
            self._say(f"resumed from checkpoint at t={checkpoint.time:g}s "
                      f"({checkpoint.fired} events)")
        else:
            self.session = Run.start(self.spec, self._paths["journal"],
                                     digest_every=self.digest_every)
        prepared = self.session.prepared
        self.system = self.session.system
        self.monitor = prepared.aux.get("monitor")
        self.horizon = (self.until if self.until is not None
                        else self.session.horizon)
        self.flight = FlightRecorder(self.system, spec=self.spec,
                                     loops=prepared.aux.get("loops"))
        self.flight.arm()   # chains after the journaling observer
        self.executor = RealTimeExecutor(
            self.system, speed=self.speed, poll_interval=self._poll_interval,
            clock=self._clock, sleep=self._sleep, lock=self._lock)
        self._last_checkpoint_wall = self._clock()
        self._last_reload_wall = self._clock()
        if self.port is not None:
            self.server = TelemetryServer(self, port=self.port).start()
            self._say(f"telemetry server on {self.server.url} "
                      "(/metrics /healthz /status /)")
        return self

    def run(self) -> str:
        """Drive to the horizon; returns ``"completed"`` or ``"drained"``.

        Either way the service ends with a durable barrier: a completed
        run closes the journal with its ``end`` record (byte-identical
        to the batch reference) and a drained run leaves an open-ended
        journal plus a final checkpoint -- the exact state
        :meth:`start` resumes from.
        """
        if self.executor is None:
            raise RuntimeError("LiveService.run() before start()")
        try:
            outcome = self.executor.run(self.horizon,
                                        should_stop=self._should_stop,
                                        housekeeping=self._housekeeping)
        except BaseException:
            with self._lock:
                self.session.abandon()
                self._flush_incidents()
            raise
        finally:
            self.stop_serving()
        with self._lock:
            if outcome == "completed":
                final = self.session.finish()
                self.last_checkpoint_meta = {
                    "time": self.system.sim.now,
                    "fired": self.system.sim.fired_count,
                    "digest": final, "final": True,
                }
                self._say(f"completed horizon t={self.horizon:g}s "
                          f"({self.system.sim.fired_count} events)")
            else:
                self._save_checkpoint()
                self.session.abandon()
                self._say(f"drained at t={self.system.sim.now:g}s "
                          f"({self.system.sim.fired_count} events); "
                          "journal left open for resume")
            self._flush_incidents()
        return outcome

    def request_drain(self) -> None:
        """Ask the run loop to stop at the next event boundary.

        Safe from signal handlers and other threads: it only sets a
        flag the executor polls between events and during sleeps.
        """
        self._drain_requested = True

    @property
    def draining(self) -> bool:
        return self._drain_requested

    def stop_serving(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # ------------------------------------------------------------------ #
    # Periodic work (always between events, under the lock)
    # ------------------------------------------------------------------ #
    def _should_stop(self) -> bool:
        return self._drain_requested

    def _housekeeping(self) -> None:
        now = self._clock()
        if now - self._last_checkpoint_wall >= self.checkpoint_every:
            with self._lock:
                self._save_checkpoint()
        if (self.reload_dir is not None
                and now - self._last_reload_wall >= RELOAD_POLL_S):
            self._last_reload_wall = now
            self.poll_reload_dir()

    def _save_checkpoint(self) -> Checkpoint:
        checkpoint = self.session.checkpoint(self._paths["checkpoint"])
        self.checkpoints_written += 1
        self._last_checkpoint_wall = self._clock()
        self.last_checkpoint_meta = {
            "time": checkpoint.time, "fired": checkpoint.fired,
            "digest": checkpoint.digest,
        }
        return checkpoint

    def _load_checkpoint(self) -> Optional[Checkpoint]:
        path = self._paths["checkpoint"]
        if not (os.path.exists(path)
                and os.path.exists(self._paths["journal"])):
            return None
        return Checkpoint.load(path)

    def _flush_incidents(self) -> None:
        if self.flight is None:
            return
        self.flight.finalize()
        if self.flight.triggered:
            bundle_dir = os.path.join(self.out, "incidents", self.spec.name)
            bundle = self.flight.capture(bundle_dir,
                                         journal_path=self._paths["journal"])
            self._say(f"incident bundle: {bundle}")
        self.flight.disarm()

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    # ------------------------------------------------------------------ #
    # Hot reconfiguration
    # ------------------------------------------------------------------ #
    def hot_load(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a reconfiguration payload at the current event barrier.

        WAL discipline: the ``reconfig`` record hits the journal before
        the payload mutates the system, the spec's ``live_loads`` gains
        the application point, and a checkpoint is saved immediately --
        so the load survives any crash that survives the load.
        """
        with self._lock:
            payload = validate_payload(payload)
            sim = self.system.sim
            fired, now = sim.fired_count, sim.now
            self.session.journal.append_reconfig(fired, now, payload)
            summary = apply_payload(self.system, payload)
            loads = list(self.spec.params.get("live_loads", []))
            loads.append({"fired": fired, "time": now, "payload": payload})
            # Every later checkpoint must rebuild with the load applied.
            self.spec = self.session.spec = ScenarioSpec(
                name=self.spec.name, seed=self.spec.seed,
                params={**self.spec.params, "live_loads": loads})
            if self.flight is not None:
                # Incident bundles must rebuild with the load applied.
                self.flight.spec = self.spec
            self._save_checkpoint()
            entry = {"fired": fired, "time": now, **summary}
            self.hot_loads_applied.append(entry)
            self._say(f"hot-loaded {summary['kind']} at t={now:g}s "
                      f"(fired={fired}): {', '.join(summary['scheduled'])}")
            return entry

    def poll_reload_dir(self) -> List[Dict[str, Any]]:
        """Apply any new ``*.json`` payloads in the reload directory.

        Files are processed in name order and renamed to ``*.applied``
        (or ``*.rejected`` with an adjacent ``.error`` file) so each
        payload applies exactly once.
        """
        applied = []
        try:
            names = sorted(os.listdir(self.reload_dir))
        except OSError:
            return applied
        for name in names:
            if not name.endswith(".json") or name in self._seen_reloads:
                continue
            self._seen_reloads.add(name)
            path = os.path.join(self.reload_dir, name)
            try:
                payload = load_document(path, Field("any"), LiveLoadError)
                applied.append(self.hot_load(payload))
            except (OSError, ValueError, LiveLoadError) as exc:
                os.replace(path, path + ".rejected")
                with open(path + ".error", "w", encoding="utf-8") as fh:
                    fh.write(f"{exc}\n")
                self._say(f"rejected hot-load {name}: {exc}")
                continue
            os.replace(path, path + ".applied")
        return applied

    # ------------------------------------------------------------------ #
    # Telemetry renders (HTTP handler threads, under the lock)
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        from repro.observability.export import prometheus_text, report_inputs

        with self._lock:
            inputs = report_inputs(self.system, scenario=self.spec.name)
            return prometheus_text(
                self.system.metrics,
                histograms=inputs["histograms"],
                per_source=inputs["per_source"],
                telemetry=inputs["telemetry"],
                profile=inputs["profile"])

    def render_health(self) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            health = health_snapshot(self.system, monitor=self.monitor,
                                     flight=self.flight)
            return (200 if health["status"] == "ok" else 503), health

    def render_status(self) -> Dict[str, Any]:
        with self._lock:
            return status_snapshot(self)

    def render_dashboard(self) -> str:
        from repro.observability.export import render_html_report, report_inputs

        with self._lock:
            inputs = report_inputs(self.system, scenario=self.spec.name)
            return render_html_report(
                f"Live — {self.spec.name} "
                f"(t={self.system.sim.now:.1f}s of {self.horizon:g}s)",
                inputs["kpi_report"],
                slo_monitor=self.monitor,
                availability_per_device=inputs["availability"]["per_device"],
                network_kinds=inputs["per_kind"],
                per_source=inputs["per_source"],
                flight=self.flight,
                telemetry=inputs["telemetry"],
                profile=inputs["profile"],
                refresh=DASHBOARD_REFRESH_S)
