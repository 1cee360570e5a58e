"""Regeneration of every table and figure in the paper's evaluation.

Each ``figNN_*`` function returns plain data (rows/series) and has a
``render_*`` companion producing the printable table the benchmarks emit.
Figure/table numbering follows the paper:

* Table I — workload descriptions (:func:`table1_rows`)
* Fig. 3  — ondemand vs oracle frequency trace snapshot (:func:`fig3_series`)
* Fig. 5  — getevent excerpt (:func:`fig5_lines`)
* Fig. 7  — suggester demo (:func:`fig7_suggester_demo`)
* Fig. 10 — input classification (:func:`fig10_rows`)
* Fig. 11 — lag-duration distributions (:func:`fig11_rows`)
* Fig. 12 — irritation + energy per configuration (:func:`fig12_rows`)
* Fig. 13 — energy/irritation scatter (:func:`fig13_rows`)
* Fig. 14 — cross-dataset summary (:func:`fig14_rows`)
* §I/§VI  — headline savings (:func:`headline_savings`)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError
from repro.core.simtime import seconds
from repro.harness.experiment import WorkloadArtifacts
from repro.harness.sweep import GOVERNORS, SweepResult, config_label
from repro.metrics.distribution import DistributionSummary, summarize_lags
from repro.oracle.profile import FrequencyProfile
from repro.replay.getevent import format_event
from repro.workloads.datasets import DATASETS


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render an aligned ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


# --- Table I -----------------------------------------------------------------------


def table1_rows() -> list[list[str]]:
    """Dataset descriptions (paper Table I) — registry-driven."""
    from repro.workloads.datasets import dataset_names

    return [[name, DATASETS[name].description] for name in dataset_names()]


def render_table1() -> str:
    return format_table(["Dataset", "Description"], table1_rows())


# --- Fig. 3: trace snapshot ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceSnapshot:
    """Fig. 3 data: two frequency series around one input."""

    input_time_s: float
    serviced_time_s: float
    window_start_s: float
    window_end_s: float
    governor_series: list[tuple[float, float]]  # (seconds, GHz)
    oracle_series: list[tuple[float, float]]


def fig3_series(
    sweep: SweepResult,
    governor: str = "ondemand",
    lag_index: int | None = None,
    margin_us: int = seconds(2),
) -> TraceSnapshot:
    """The snapshot of governor vs oracle frequency around one lag."""
    run = sweep.runs[governor][0]
    oracle = sweep.oracle
    lags = oracle.lags
    if not lags:
        raise ReproError("workload has no lags to snapshot")
    if lag_index is None:
        # The paper snapshots a substantial interaction; pick the lag with
        # the longest oracle duration in the middle half of the run.
        mid = [
            (i, lag)
            for i, lag in enumerate(lags)
            if 0.25 <= lag.begin_us / oracle.profile.end_us <= 0.75
        ] or list(enumerate(lags))
        lag_index = max(mid, key=lambda pair: pair[1].duration_us)[0]
    lag = lags[lag_index]
    start = max(0, lag.begin_us - margin_us)
    end = lag.begin_us + lag.duration_us + margin_us

    governor_profile = FrequencyProfile.from_transitions(
        run.transitions, run.duration_us
    )
    def series(profile: FrequencyProfile) -> list[tuple[float, float]]:
        points = []
        for segment in profile.window(start, end):
            points.append((segment.start_us / 1e6, segment.freq_khz / 1e6))
            points.append((segment.end_us / 1e6, segment.freq_khz / 1e6))
        return points

    return TraceSnapshot(
        input_time_s=lag.begin_us / 1e6,
        serviced_time_s=(lag.begin_us + lag.duration_us) / 1e6,
        window_start_s=start / 1e6,
        window_end_s=end / 1e6,
        governor_series=series(governor_profile),
        oracle_series=series(oracle.profile),
    )


def render_fig3(snapshot: TraceSnapshot, governor: str = "ondemand") -> str:
    rows = []
    rows.append(["A: input received", f"{snapshot.input_time_s:.2f} s", ""])
    rows.append(["B: input serviced", f"{snapshot.serviced_time_s:.2f} s", ""])
    for label, series in (
        (governor, snapshot.governor_series),
        ("oracle", snapshot.oracle_series),
    ):
        for t, ghz in series:
            rows.append([label, f"{t:.3f} s", f"{ghz:.2f} GHz"])
    return format_table(["series", "time", "frequency"], rows)


# --- Fig. 5: getevent excerpt -----------------------------------------------------------


def fig5_lines(artifacts: WorkloadArtifacts, count: int = 8) -> list[str]:
    """The first tap's raw getevent lines (paper Fig. 5)."""
    return [
        format_event(event, with_timestamp=False)
        for event in list(artifacts.trace)[:count]
    ]


# --- Fig. 7: suggester demo ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SuggesterDemo:
    """Fig. 7 data: the Gallery-launch lag through the suggester."""

    input_frame: int
    next_input_frame: int
    change_string: str
    suggested_frames: list[int]
    ground_truth_end_frame: int
    reduction_factor: float


def fig7_suggester_demo(freq_khz: int = 300_000) -> SuggesterDemo:
    """Run the paper's Fig. 7 scenario: a Gallery launch at the lowest
    frequency, suggester applied to the window between the two inputs."""
    from repro.analysis.suggester import (
        SuggesterConfig,
        change_string,
        reduction_factor,
        suggest,
    )
    from repro.apps import install_standard_apps
    from repro.capture import CaptureCard, Video
    from repro.device.device import Device
    from repro.device.display import VSYNC_PERIOD_US
    from repro.uifw.view import WindowManager

    device = Device()
    wm = WindowManager(device)
    install_standard_apps(wm)
    device.set_governor(f"fixed:{freq_khz}")
    card = CaptureCard(device.display)
    video = Video(device.display.width, device.display.height)
    card.add_tap(video)
    card.start(device.engine.now)
    launcher = wm.app("launcher")
    gallery = wm.app("gallery")
    first_input = seconds(1)
    second_input = seconds(9)
    device.touchscreen.schedule_tap(
        first_input, launcher.tap_target("icon:gallery")
    )
    device.engine.schedule_at(
        second_input - 1,
        lambda: device.touchscreen.schedule_tap(
            second_input, gallery.tap_target("album:0")
        ),
    )
    device.run_for(seconds(12))
    card.stop(device.engine.now)

    record = wm.journal.interactions[0]
    config = SuggesterConfig(mask_rects=tuple(record.mask_rects))
    begin_frame = first_input // VSYNC_PERIOD_US
    end_frame = second_input // VSYNC_PERIOD_US
    suggestions = suggest(video, begin_frame, end_frame, config)
    assert record.end_time is not None
    return SuggesterDemo(
        input_frame=begin_frame,
        next_input_frame=end_frame,
        change_string=change_string(video, begin_frame, end_frame, config),
        suggested_frames=[s.frame_index for s in suggestions],
        ground_truth_end_frame=record.end_time // VSYNC_PERIOD_US + 1,
        reduction_factor=reduction_factor(video, begin_frame, end_frame, config),
    )


def collapse_change_string(bits: str) -> str:
    """Summarise a 0/1 string the way Fig. 7's curly brackets do."""
    if not bits:
        return ""
    out = []
    run_char = bits[0]
    run_len = 1
    for char in bits[1:]:
        if char == run_char:
            run_len += 1
            continue
        out.append(
            run_char * run_len if run_len < 4 else f"{run_char}{{x{run_len}}}"
        )
        run_char = char
        run_len = 1
    out.append(
        run_char * run_len if run_len < 4 else f"{run_char}{{x{run_len}}}"
    )
    return " ".join(out)


def render_fig7(demo: SuggesterDemo) -> str:
    lines = [
        f"input at frame {demo.input_frame}, next input at frame "
        f"{demo.next_input_frame}",
        f"change string: {collapse_change_string(demo.change_string)}",
        f"suggested lag-ending frames: {demo.suggested_frames}",
        f"ground-truth ending frame:   {demo.ground_truth_end_frame}",
        f"frames the user no longer inspects: reduction factor "
        f"{demo.reduction_factor:.1f}x",
    ]
    return "\n".join(lines)


# --- Fig. 10: input classification -------------------------------------------------------


def fig10_rows(artifacts_list: list[WorkloadArtifacts]) -> list[list[str]]:
    rows = []
    totals = []
    for artifacts in artifacts_list:
        c = artifacts.classification
        rows.append(
            [
                c.dataset,
                str(c.taps),
                str(c.swipes),
                str(c.actual_lags),
                str(c.spurious_lags),
                str(c.total_inputs),
            ]
        )
        totals.append(c)
    short = [c for c in totals if _is_short_workload(c.dataset)]
    if len(short) > 1:
        average = sum(c.total_inputs for c in short) / len(short)
        rows.append(["average", "", "", "", "", f"{average:.0f}"])
    return rows


def _is_short_workload(name: str) -> bool:
    """Registry-driven Fig. 10 average membership (not a hard-coded list)."""
    from repro.core.errors import WorkloadError
    from repro.workloads.datasets import SHORT_WORKLOAD_LIMIT_US, dataset

    try:
        spec = dataset(name)
    except WorkloadError:
        return True
    return spec.duration_us <= SHORT_WORKLOAD_LIMIT_US


def render_fig10(artifacts_list: list[WorkloadArtifacts]) -> str:
    return format_table(
        ["Dataset", "Taps", "Swipes", "Actual lags", "Spurious lags", "Events"],
        fig10_rows(artifacts_list),
    )


# --- Fig. 11: lag-duration distributions ---------------------------------------------------


def fig11_rows(sweep: SweepResult) -> dict[str, DistributionSummary]:
    """Violin-plot ingredients per configuration."""
    out: dict[str, DistributionSummary] = {}
    for config in sweep.configs():
        durations = sweep.pooled_lag_durations_ms(config)
        out[config_label(config, sweep.table)] = summarize_lags(durations)
    return out


def render_fig11(sweep: SweepResult) -> str:
    rows = []
    for label, summary in fig11_rows(sweep).items():
        rows.append(
            [
                label,
                str(summary.count),
                f"{summary.mean_ms:.0f}",
                f"{summary.q1_ms:.0f}",
                f"{summary.median_ms:.0f}",
                f"{summary.q3_ms:.0f}",
                f"{summary.whisker_high_ms:.0f}",
                f"{summary.max_ms:.0f}",
            ]
        )
    return format_table(
        ["config", "lags", "mean", "q1", "median", "q3", "whisk-hi", "max"],
        rows,
    )


# --- Fig. 12: irritation + energy ------------------------------------------------------------


def fig12_rows(sweep: SweepResult) -> list[list[str]]:
    rows = []
    for config in sweep.configs():
        rows.append(
            [
                config_label(config, sweep.table),
                f"{sweep.mean_irritation_s(config):.2f}",
                f"{sweep.mean_energy_j(config):.2f}",
                f"{sweep.energy_normalised_to_oracle(config):.2f}",
            ]
        )
    oracle = sweep.oracle
    rows.append(
        [
            "oracle",
            f"{oracle.irritation().total_seconds:.2f}",
            f"{oracle.energy_j:.2f}",
            "1.00",
        ]
    )
    return rows


def render_fig12(sweep: SweepResult) -> str:
    return format_table(
        ["config", "irritation s", "energy J", "energy/oracle"],
        fig12_rows(sweep),
    )


# --- Fig. 13: scatter ---------------------------------------------------------------------------


def fig13_rows(sweep: SweepResult) -> list[tuple[str, str, float, float]]:
    """(label, kind, energy_j, irritation_s) points; oracle included."""
    points = []
    for config in sweep.configs():
        kind = "governor" if not config.startswith("fixed:") else "fixed"
        points.append(
            (
                config_label(config, sweep.table),
                kind,
                sweep.mean_energy_j(config),
                sweep.mean_irritation_s(config),
            )
        )
    oracle = sweep.oracle
    points.append(
        ("oracle", "oracle", oracle.energy_j, oracle.irritation().total_seconds)
    )
    return points


def render_fig13(sweep: SweepResult) -> str:
    rows = [
        [label, kind, f"{energy:.2f}", f"{irritation:.2f}"]
        for label, kind, energy, irritation in fig13_rows(sweep)
    ]
    return format_table(["config", "kind", "energy J", "irritation s"], rows)


# --- Fig. 14: summary across datasets --------------------------------------------------------------


def fig14_rows(
    sweeps: dict[str, SweepResult]
) -> tuple[list[list[str]], list[list[str]]]:
    """(energy table rows, irritation table rows), datasets + averages."""
    datasets = sorted(sweeps)
    energy_rows = []
    irritation_rows = []
    for governor in GOVERNORS:
        energies = [
            sweeps[ds].energy_normalised_to_oracle(governor) for ds in datasets
        ]
        irritations = [sweeps[ds].mean_irritation_s(governor) for ds in datasets]
        energy_rows.append(
            [governor]
            + [f"{value:.2f}" for value in energies]
            + [f"{sum(energies) / len(energies):.2f}"]
        )
        irritation_rows.append(
            [governor]
            + [f"{value:.1f}" for value in irritations]
            + [f"{sum(irritations) / len(irritations):.1f}"]
        )
    return energy_rows, irritation_rows


def render_fig14(sweeps: dict[str, SweepResult]) -> str:
    datasets = sorted(sweeps)
    headers = ["governor"] + datasets + ["avg"]
    energy_rows, irritation_rows = fig14_rows(sweeps)
    return (
        "Energy normalised to oracle\n"
        + format_table(headers, energy_rows)
        + "\n\nUser irritation in seconds\n"
        + format_table(headers, irritation_rows)
    )


# --- headline savings -------------------------------------------------------------------------------


def headline_savings(sweeps: dict[str, SweepResult]) -> dict[str, float]:
    """The abstract's headline numbers.

    ``vs_best_governor``: energy saved by the oracle relative to
    ``interactive``, the standard Android governor, whatever its
    irritation (the paper: "27% … whilst delivering a user experience that
    is better than that provided by the standard ANDROID frequency
    governor"); despite the key's name, no other governor is compared.
    ``vs_max_frequency``: energy saved relative to always running at the
    highest frequency ("47% … with performance indistinguishable from
    permanently running the CPU at the highest frequency").
    """
    vs_gov = []
    vs_max = []
    for sweep in sweeps.values():
        oracle_energy = sweep.oracle.energy_j
        android_default = sweep.mean_energy_j("interactive")
        vs_gov.append(1.0 - oracle_energy / android_default)
        max_khz = sweep.table.max_khz
        max_energy = sweep.mean_energy_j(f"fixed:{max_khz}")
        vs_max.append(1.0 - oracle_energy / max_energy)
    return {
        "vs_best_governor_max": max(vs_gov),
        "vs_best_governor_avg": sum(vs_gov) / len(vs_gov),
        "vs_max_frequency_max": max(vs_max),
        "vs_max_frequency_avg": sum(vs_max) / len(vs_max),
    }
