"""Recording and replaying one workload execution.

``record_workload`` performs the paper's part A once per dataset: a
scripted user exercises the device (pinned at the lowest frequency, so
recorded timings stay valid at every configuration), the recorder captures
the getevent trace, the capture card films the screen, and the
AutoAnnotator builds the annotation database from the suggester's
candidates.

``replay_run`` is part B, repeatable at will: replay the trace under any
governor or fixed frequency, film the screen, and let the matcher produce
the lag profile — plus the energy/frequency/busy traces the study needs.
The run *streams*: frames flow through the online matcher and are
released as annotation windows close, and the device accumulates its
traces compactly, so a replay costs O(active-window) memory instead of
O(session).  :func:`run_cell` is the one pipeline every replay cell
runs, full or kernel-only (:mod:`repro.demand.replayer`).  The result
is a schema-versioned :class:`~repro.results.RunRecord` — the one
shape results take across fleet IPC and the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import (
    AnnotationDatabase,
    AutoAnnotator,
    LagProfile,
    OnlineMatcher,
)
from repro.analysis.classify import InputClassification, classify_workload
from repro.apps import install_standard_apps
from repro.apps.services import BackgroundServices
from repro.capture import CaptureCard
from repro.core.errors import WorkloadError
from repro.core.rng import RngStreams
from repro.core.simtime import seconds
from repro.device.device import Device, DeviceConfig
from repro.metrics.hci import SHNEIDERMAN_MODEL, HciModel
from repro.obs import session as obs_session
from repro.replay import GeteventRecorder, ReplayAgent
from repro.replay.trace import EventTrace
from repro.results import RunRecord
from repro.scenarios.profiles import device_config_for
from repro.uifw.view import WindowManager
from repro.workloads.datasets import DatasetSpec, check_recording
from repro.workloads.sessions import ScriptedUser

# Recording runs at the device's lowest OPP (§II-E); on the stock
# profile that is the 0.30 GHz point this constant documents.
RECORDING_FREQ_KHZ = 300_000
QUIESCENCE_LIMIT_US = seconds(120)
RUN_TAIL_US = seconds(5)
DEFAULT_MASTER_SEED = 2014


@dataclass(slots=True)
class WorkloadArtifacts:
    """Everything needed to replay and evaluate a recorded workload."""

    spec: DatasetSpec
    trace: EventTrace
    database: AnnotationDatabase
    duration_us: int
    classification: InputClassification
    recording_master_seed: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def input_count(self) -> int:
        return len(self.database.gestures)

    def fingerprint(self) -> str:
        """Content hash of the replay-relevant state (fleet cache key part)."""
        from repro.fleet.cache import workload_fingerprint

        return workload_fingerprint(self)

    def save(self, directory) -> None:
        """Persist trace + annotation database + metadata to a directory.

        A saved workload is the paper's reusable artefact: "the workload
        will be reusable time and again".
        """
        import json
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.trace.save(directory / "trace.getevent")
        self.database.save(directory / "annotations")
        meta = {
            "dataset": self.spec.name,
            "duration_us": self.duration_us,
            "recording_master_seed": self.recording_master_seed,
            "classification": self.classification.as_row(),
        }
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=2), encoding="utf-8"
        )

    @classmethod
    def load(
        cls, directory, verify_classification: bool = False
    ) -> "WorkloadArtifacts":
        """Load artifacts previously written by :meth:`save`.

        The classification row is read straight from ``meta.json`` —
        re-running the full gesture decode over the trace on every load
        is wasted work the recording already paid for.  Pass
        ``verify_classification=True`` to recompute it anyway and fail
        loudly if the saved row no longer matches (e.g. the classifier
        changed since the artifacts were written).
        """
        import json
        from pathlib import Path

        from repro.workloads.datasets import dataset as dataset_lookup

        directory = Path(directory)
        meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
        trace = EventTrace.load(directory / "trace.getevent")
        database = AnnotationDatabase.load(directory / "annotations")
        spec = dataset_lookup(meta["dataset"])
        saved_row = meta.get("classification")
        if saved_row is None or verify_classification:
            recomputed = classify_workload(meta["dataset"], trace, database)
        if saved_row is None:
            classification = recomputed
        else:
            classification = InputClassification(
                dataset=saved_row["dataset"],
                taps=saved_row["taps"],
                swipes=saved_row["swipes"],
                actual_lags=saved_row["actual_lags"],
                spurious_lags=saved_row["spurious_lags"],
            )
            if verify_classification and classification != recomputed:
                raise WorkloadError(
                    f"saved classification of {meta['dataset']!r} "
                    f"({classification.as_row()}) does not match "
                    f"recomputation ({recomputed.as_row()}); re-record or "
                    "re-save the artifacts"
                )
        return cls(
            spec=spec,
            trace=trace,
            database=database,
            duration_us=meta["duration_us"],
            classification=classification,
            recording_master_seed=meta["recording_master_seed"],
        )


def record_workload(
    spec: DatasetSpec,
    master_seed: int = DEFAULT_MASTER_SEED,
    hci_model: HciModel = SHNEIDERMAN_MODEL,
    device_config: DeviceConfig | None = None,
) -> WorkloadArtifacts:
    """Record, capture and annotate one dataset (paper Fig. 4, part A)."""
    streams = RngStreams(master_seed).fork(f"dataset:{spec.name}")
    if device_config is None:
        device_config = device_config_for(spec)
    device = Device(device_config)
    wm = WindowManager(device)
    install_standard_apps(wm)
    BackgroundServices(
        device.engine,
        device.scheduler,
        streams.fork("record-noise").stream("services"),
    ).start()
    device.set_governor(f"fixed:{device_config.frequency_table.min_khz}")
    recorder = GeteventRecorder(device.input_subsystem)
    recorder.start()
    card = CaptureCard(device.display)
    card.start(device.engine.now)

    user = ScriptedUser(wm, spec.plan(streams.stream("plan")), spec.duration_us)
    user.start()
    device.run_for(spec.duration_us)

    # Let the last interaction finish rendering before cutting the video.
    # A gesture can still be in flight at the deadline (finger down, up
    # not yet delivered) — its interaction only opens once the finger
    # lifts, so the wait must cover in-flight contacts too or the video
    # gets cut before the final interaction has even begun.
    def _recording_pending() -> bool:
        return (
            device.touchscreen.contact_active
            or wm.journal.open_interactions > 0
        )

    waited = 0
    while _recording_pending() and waited < QUIESCENCE_LIMIT_US:
        device.run_for(seconds(1))
        waited += seconds(1)
    if _recording_pending():
        raise WorkloadError(
            f"dataset {spec.name}: interactions still pending "
            f"{QUIESCENCE_LIMIT_US} us after the session deadline"
        )
    device.run_for(seconds(2))

    trace = recorder.stop()
    video = card.stop(device.engine.now)
    duration_us = device.engine.now

    annotator = AutoAnnotator(spec.name, hci_model=hci_model)
    database = annotator.annotate(video, wm.journal)
    classification = classify_workload(spec.name, trace, database)
    check_recording(spec, classification.total_inputs, duration_us)
    return WorkloadArtifacts(
        spec=spec,
        trace=trace,
        database=database,
        duration_us=duration_us,
        classification=classification,
        recording_master_seed=master_seed,
    )


def stream_lags(device: Device, database: AnnotationDatabase, frame_tap):
    """Film the display through the online matcher from now on.

    Frames flow to the matcher as the replay executes and are released
    once their annotation windows close, so memory stays O(active-window)
    instead of O(session).  Returns ``finish(now)``, which stops the
    capture and yields the lag profile.
    """
    card = CaptureCard(device.display)
    online = OnlineMatcher(database)
    card.add_tap(online)
    if frame_tap is not None:
        card.add_tap(frame_tap)
    card.start(device.engine.now, streaming=True)

    def finish(now: int) -> LagProfile:
        card.stop(now)
        return online.profile()

    return finish


def run_cell(
    artifacts: WorkloadArtifacts,
    config: str,
    rep: int,
    master_seed: int,
    device_config: DeviceConfig | None,
    governor_tunables: dict,
    install,
    lag_source,
) -> RunRecord:
    """Replay one (config, rep) cell of a recorded workload (part B).

    The one pipeline behind :func:`replay_run` and
    :func:`~repro.demand.replayer.demand_replay_run`, which differ only
    in the two steps they pass: ``install(device)`` puts the workload on
    the device before anything else runs, and ``lag_source(device)``
    starts observing the screen and returns ``finish(now)``, which yields
    the lag profile once the run is over.  Everything else — the RNG
    fork, the background services, the governor, the replay agent, the
    record and the observability harvest — happens here, in one order,
    so every cell's event sequence numbers line up.
    """
    # Observability: an externally installed session (the ``trace``
    # command, tests) is used as-is; otherwise REPRO_TRACE=1 installs a
    # per-run metrics + flight-recorder session for this replay only.
    # With neither, obs stays None and every instrumentation site below
    # reduces to one ``is not None`` test.
    obs = obs_session.active()
    owns_session = False
    if obs is None and obs_session.trace_enabled():
        obs = obs_session.ObsSession.for_run()
        obs_session.install(obs)
        owns_session = True
    try:
        streams = RngStreams(master_seed).fork(
            f"replay:{artifacts.name}:{config}:{rep}"
        )
        if device_config is None:
            device_config = device_config_for(artifacts.spec)
        device = Device(device_config)
        install(device)
        BackgroundServices(
            device.engine, device.scheduler, streams.stream("services")
        ).start()
        device.set_governor(config, **governor_tunables)
        device.cpu.enable_busy_trace()
        ReplayAgent(device.engine, device.input_subsystem).schedule(
            artifacts.trace
        )
        finish = lag_source(device)

        run_window = artifacts.duration_us + RUN_TAIL_US
        device.run_for(run_window)

        profile = finish(device.engine.now)
        record = RunRecord(
            workload=artifacts.name,
            config=config,
            rep=rep,
            duration_us=run_window,
            energy_j=device.cpu.energy_joules(),
            dynamic_energy_j=device.cpu.dynamic_energy_joules(),
            busy_us=device.cpu.busy_time_total(),
            transitions=device.policy.transition_points(),
            busy_intervals=device.cpu.busy_pairs(),
            lags=profile.lags,
        )
        if obs is not None:
            snapshot = obs.harvest_run(device.engine, governor=device.governor)
            if obs.decisions is not None:
                # The attribution engine consumes only mode-invariant
                # record state + boost timestamps, so the harvested cause
                # profile is identical across fastpath on and off.
                from repro.obs.attribution import attribute_record

                snapshot["attribution"] = attribute_record(
                    record, boosts=obs.decisions.boosts
                ).summary()
            record.obs = snapshot
        return record
    finally:
        if owns_session:
            obs_session.uninstall()


def replay_run(
    artifacts: WorkloadArtifacts,
    config: str,
    rep: int = 0,
    master_seed: int = DEFAULT_MASTER_SEED,
    device_config: DeviceConfig | None = None,
    frame_tap=None,
    **governor_tunables,
) -> RunRecord:
    """Replay a recorded workload under a configuration (part B).

    ``config`` is a governor name (``ondemand``, ``conservative``,
    ``interactive``, …) or ``fixed:<khz>`` for one of the 14 operating
    points.

    ``frame_tap``, if given, is a :class:`~repro.capture.stream.FrameTap`
    subscribed to the capture — the golden-equivalence tests digest the
    frame journal through one without materialising a video.
    """
    return run_cell(
        artifacts,
        config,
        rep,
        master_seed,
        device_config,
        governor_tunables,
        install=lambda device: install_standard_apps(WindowManager(device)),
        lag_source=lambda device: stream_lags(
            device, artifacts.database, frame_tap
        ),
    )
