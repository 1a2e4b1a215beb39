"""Experiment orchestration: wires simulator, dApp, transport, and xApp.

Three experiments, mirroring the prototype methodology at desk scale:

* Periodicity control: walk a reporting-period schedule (default
  100 -> 20 -> 10 ms) and measure per-segment inter-arrival statistics.
* Closed-loop latency: at a fixed period, pair every indication with a no-op
  control command and decompose the loop into telemetry and control parts.
  The no-op keeps the dApp's deadline grid, so the probes run at the period.
* Sensing accuracy: run the dApp's own sensing pipeline over seeded bursts
  and score range/velocity errors against simulator ground truth.

All outputs are CSV plus a summary JSON, written by ``_write_run`` alone;
published prototype numbers are attached as clearly labeled annotations,
never as pass/fail criteria.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .control import A1IsacPolicy, XApp, policy_from_dict
from .dapp import DappConfig, SensingDapp
from .e2sm import MAX_PERIOD_MS, SubscriptionMode, TriggerConfig, evaluate_triggers, valid_period
from .ofh import BeamTable, WaveformConfig, waveform_from_dict
# SceneParseError is imported for callers: load_config raises it.
from .radio import (
    DelayExceedsBurst, EchoScene, SceneParseError, Target, beam_gain, check_targets_fit,
    scene_from_dict,
)
from .schema import (
    checked, json_float, json_int, json_list, json_str, load_json, read_document,
)
from .stats import (
    ExperimentSummary,
    compliance_table,
    ecdf,
    latency_percentiles_ms,
    segment_stats,
)
from .transport import EndpointKind, channel_pair


class SetupFailure(Exception):
    pass


class ConfigParseError(Exception):
    """An experiment configuration document is not JSON, not an object, or has a malformed field."""


def default_waveform(num_symbols: int = 16) -> WaveformConfig:
    """100 MHz sensing waveform; sample rate equals bandwidth."""
    return WaveformConfig(
        fft_size=256,
        cp_length=64,
        subcarrier_spacing=100e6 / 256,
        pilot_pattern="qpsk-prs",
        carrier_frequency=3.5e9,
        bandwidth=100e6,
        num_symbols=num_symbols,
    )


def default_beam_table() -> BeamTable:
    return BeamTable({i: (float(-60 + 15 * i), 0.0) for i in range(9)})


# The default table's beam at 0 degrees, where the default scenes put their target.
_BORESIGHT_BEAM = 4


@dataclass
class ExperimentConfig:
    transport: EndpointKind = EndpointKind.IN_PROCESS
    schedule_ms: tuple[float, ...] = (100.0, 20.0, 10.0)
    segment_duration_s: float = 10.0
    probe_period_ms: float = 10.0
    num_probes: int = 5000
    scene: EchoScene = field(default_factory=lambda: EchoScene(
        targets=(Target(range_m=45.0, radial_velocity_mps=10.0, azimuth_deg=0.0),),
        snr_db=20.0,
        residual_si_power_db=-20.0,
    ))
    waveform: WaveformConfig = field(default_factory=default_waveform)
    policy: A1IsacPolicy = field(default_factory=lambda: A1IsacPolicy(
        min_period_ms=5.0, max_period_ms=1000.0))
    accuracy_trials: int = 200
    out_dir: Path | None = None


_PERIOD = checked(json_float, valid_period, f"a report period in (0, {MAX_PERIOD_MS:.0f}] ms")

# Each field's parser; the CLI flags that set these fields parse by them too.
CONFIG_FIELDS = {
    "transport": lambda value: EndpointKind(json_str(value)),
    "schedule_ms": checked(json_list(_PERIOD), bool, "at least one period"),
    "segment_duration_s": checked(json_float, lambda s: s > 0.0, "a duration > 0"),
    "probe_period_ms": _PERIOD,
    "num_probes": checked(json_int, lambda n: n >= 1, "a JSON integer >= 1"),
    "accuracy_trials": json_int,
    "scene": scene_from_dict,
    "waveform": waveform_from_dict,
    "policy": policy_from_dict,
    # A document field, not an ExperimentConfig one: it goes to the scene.
    "seed": json_int,
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Build an experiment configuration from a JSON document.

    ``scene``, ``waveform`` and ``policy`` go through their own documents'
    parsers; a key the document leaves out keeps its ``ExperimentConfig``
    default. A top-level ``seed`` is the seed of a scene that has none of its
    own. A document that is not a JSON object, or a malformed or unknown
    top-level field, raises ``ConfigParseError`` naming the document and the
    field.
    """
    doc = load_json(path, ConfigParseError)

    def build(seed=None, **values) -> ExperimentConfig:
        cfg = ExperimentConfig(**values)
        if seed is not None and "seed" not in doc.get("scene", {}):
            cfg.scene = replace(cfg.scene, seed=seed)
        return cfg

    return read_document(doc, build, CONFIG_FIELDS, ConfigParseError, str(path))


def _write_run(out_dir: Path | None, summary: dict, tables: dict[str, list[str]]) -> None:
    """Write a run directory: each table as ``<name>.csv``, then ``summary.json``.

    A table's first line is its header. Nothing is written without a directory.
    """
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, lines in tables.items():
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


@contextmanager
def _subscribed_stack(cfg: ExperimentConfig, period_ms: float
                      ) -> Iterator[tuple[SensingDapp, XApp, int, dict[str, dict]]]:
    """Run a dApp and an xApp on one channel pair, subscribed at ``period_ms``.

    Yields ``(dapp, xapp, subscribed_ns, counters)``. ``subscribed_ns`` is
    ``dapp.clock``'s reading just before the subscription request was sent;
    every ``SharedClock`` reads the same time, so the xApp's agrees with it.
    The xApp, then the dApp, stop on the way out, a refused subscribe too; once
    both have stopped, ``counters`` holds each side's failure counters under
    ``"dapp"`` and ``"xapp"``. A scene no burst can carry starts nothing.
    """
    try:
        check_targets_fit(cfg.scene.targets, cfg.waveform)
    except DelayExceedsBurst as e:
        raise SetupFailure(f"scene does not fit the burst: {e}") from e
    try:
        dapp_end, xapp_end = channel_pair(cfg.transport)
    except OSError as e:
        raise SetupFailure(f"transport setup failed: {e}") from e
    beams = default_beam_table()
    dapp = SensingDapp(DappConfig(report_period_ms=period_ms, active_beam=_BORESIGHT_BEAM),
                       {0: cfg.waveform}, beams, cfg.scene, dapp_end)
    xapp = XApp(xapp_end, policy=cfg.policy, beam_table=beams)
    dapp.start()
    xapp.start()
    counters: dict[str, dict] = {}
    try:
        subscribed_ns = dapp.clock.now_ns()
        xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=period_ms)
        yield dapp, xapp, subscribed_ns, counters
    finally:
        xapp.stop()
        dapp.stop()
        counters.update(dapp=dapp.counters(), xapp=xapp.counters())


def _first_report_ms(xapp: XApp, subscribed_ns: int) -> float | None:
    """Clock ms from just before the subscription request to the first INDICATION's t1.

    The dApp takes its first deadline one period after it accepts, and builds
    the subscribed probe inside that period, so this is the period plus
    whatever of the cold first burst the period did not hide. perfbench's
    ``harness.setup.first_report`` span is shorter: it starts once
    ``subscribe()`` has returned. None without a report.
    """
    if not xapp.reports:
        return None
    return (xapp.reports[0].t1_ns - subscribed_ns) / 1e6


def _dapp_drops(counters: dict[str, dict]) -> int:
    """Reports the dApp lost: blocks it dropped plus frames its outbox evicted."""
    return counters["dapp"]["dropped_blocks"] + counters["dapp"]["transport_drops"]


def run_experiment_a(cfg: ExperimentConfig) -> ExperimentSummary:
    """Periodicity control: execute the period schedule and score each segment."""
    if not cfg.schedule_ms:
        raise SetupFailure("empty period schedule")
    with _subscribed_stack(cfg, cfg.schedule_ms[0]) as (dapp, xapp, subscribed_ns, counters):
        clock = dapp.clock
        boundaries = [(clock.now_ns(), cfg.schedule_ms[0])]  # (clock ns, target period)
        for target in cfg.schedule_ms[1:]:
            time.sleep(cfg.segment_duration_s)
            xapp.set_period(target)
            boundaries.append((clock.now_ns(), target))
        time.sleep(cfg.segment_duration_s)
        reports = list(xapp.reports)

    if len(reports) < 3:
        raise SetupFailure("too few reports collected")

    seqs = [r.report.sequence_number for r in reports]
    gaps = sum(b - a - 1 for a, b in zip(seqs, seqs[1:]))

    # Per-report target period: the most recent boundary before its arrival.
    rows: list[tuple[float, float, float]] = []  # (t_s, inter_ms, target_ms)
    per_segment: dict[int, list[float]] = {i: [] for i in range(len(boundaries))}
    settle: dict[int, int] = {i: 0 for i in range(len(boundaries))}
    t_start = boundaries[0][0]
    for prev, curr in zip(reports, reports[1:]):
        inter_ms = (curr.t1_ns - prev.t1_ns) / 1e6
        seg = 0
        for i, (t_b, _) in enumerate(boundaries):
            if curr.t1_ns >= t_b:
                seg = i
        rows.append(((curr.t1_ns - t_start) / 1e9, inter_ms, boundaries[seg][1]))
        # The first two intervals after a period change may straddle the old
        # cadence; the transition allowance excludes them from segment stats.
        if settle[seg] < 2:
            settle[seg] += 1
            continue
        per_segment[seg].append(inter_ms)

    segments = [
        segment_stats(per_segment[i], boundaries[i][1])
        for i in range(len(boundaries))
        if per_segment[i]
    ]

    summary = ExperimentSummary(
        segments=segments,
        transport_drops=_dapp_drops(counters),
        sample_count=len(reports),
        dapp_counters=counters["dapp"],
        xapp_counters=counters["xapp"],
        metadata={
            "experiment": "periodicity-control",
            "schedule_ms": list(cfg.schedule_ms),
            "segment_duration_s": cfg.segment_duration_s,
            "transport": cfg.transport.value,
            "sequence_gaps": gaps,
            "first_report_ms": _first_report_ms(xapp, subscribed_ns),
        },
    )
    _write_run(cfg.out_dir, summary.to_dict(), {"interarrival": [
        "time_s,inter_arrival_ms,target_ms",
        *(f"{t:.6f},{i:.6f},{g}" for t, i, g in rows),
    ]})
    return summary


def run_experiment_b(cfg: ExperimentConfig) -> ExperimentSummary:
    """Closed-loop latency: fixed period, paired telemetry + no-op control probes.

    Each probe waits for the next indication, then refreshes the period to its
    current value. The refresh leaves the report schedule alone, so
    ``num_probes`` probes take about ``num_probes * probe_period_ms``.
    """
    with _subscribed_stack(cfg, cfg.probe_period_ms) as (_, xapp, subscribed_ns, counters):
        samples = [xapp.closed_loop_probe() for _ in range(cfg.num_probes)]

    telemetry = [s.telemetry_latency_ns / 1e6 for s in samples]
    control = [s.control_latency_ns / 1e6 for s in samples]
    closed = [s.closed_loop_ns / 1e6 for s in samples]

    summary = ExperimentSummary(
        telemetry_ms=latency_percentiles_ms(telemetry),
        control_ms=latency_percentiles_ms(control),
        closed_loop_ms=latency_percentiles_ms(closed),
        compliance=compliance_table(closed),
        transport_drops=_dapp_drops(counters),
        sample_count=len(samples),
        dapp_counters=counters["dapp"],
        xapp_counters=counters["xapp"],
        metadata={
            "experiment": "closed-loop-latency",
            "probe_period_ms": cfg.probe_period_ms,
            "transport": cfg.transport.value,
            "first_report_ms": _first_report_ms(xapp, subscribed_ns),
        },
    )
    _write_run(cfg.out_dir, summary.to_dict(), {
        "latency_cdf": [
            "latency_ms,cumulative_fraction",
            *(f"{v:.6f},{f:.6f}" for v, f in ecdf(telemetry)),
        ],
        "breakdown": [
            "sequence_number,telemetry_ms,control_ms,closed_loop_ms",
            *(f"{s.sequence_number},{t:.6f},{c:.6f},{l:.6f}"
              for s, t, c, l in zip(samples, telemetry, control, closed)),
        ],
        "samples": [
            "sequence_number,t0_ns,t1_ns,t_cmd_issue_ns,t_cmd_applied_ns",
            *(f"{s.sequence_number},{s.t0_ns},{s.t1_ns},"
              f"{s.t_cmd_issue_ns},{s.t_cmd_applied_ns}" for s in samples),
        ],
    })
    return summary


@dataclass
class AccuracyReport:
    trials: int
    range_rmse_m: float
    velocity_rmse_mps: float
    range_errors_m: list[float]
    velocity_errors_mps: list[float]
    trigger_hits: int
    trigger_misses: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "range_rmse_m": self.range_rmse_m,
            "velocity_rmse_mps": self.velocity_rmse_mps,
            "trigger_hits": self.trigger_hits,
            "trigger_misses": self.trigger_misses,
        }


def run_sensing_accuracy(cfg: ExperimentConfig) -> AccuracyReport:
    """Score the dApp's sensing pipeline against simulator ground truth.

    Trial k's report is the k-th burst of one offline dApp on the boresight
    beam, with a waveform of at least 64 symbols: the scene seed plus k
    draws its noise.
    """
    scene = cfg.scene
    beams = default_beam_table()
    wf = replace(cfg.waveform, num_symbols=max(cfg.waveform.num_symbols, 64))
    dapp_end, _ = channel_pair()
    dapp = SensingDapp(DappConfig(active_beam=_BORESIGHT_BEAM), {0: wf}, beams, scene, dapp_end)
    trig = TriggerConfig(echo_energy_threshold_db=-40.0)
    # Trials differ only by seed, so they share one strongest target.
    truth = None
    if scene.targets:
        beam_az, _ = beams.direction(_BORESIGHT_BEAM)
        gains = [t.amplitude * beam_gain(t.azimuth_deg, beam_az) for t in scene.targets]
        truth = scene.targets[int(np.argmax(gains))]

    range_errors: list[float] = []
    vel_errors: list[float] = []
    hits = misses = 0
    rows = ["trial,true_range_m,est_range_m,true_velocity_mps,est_velocity_mps,trigger_fired"]
    for trial in range(cfg.accuracy_trials):
        report = dapp.sense_once()
        fired = evaluate_triggers(report, None, trig)
        if truth is not None:
            range_errors.append(report.range_m - truth.range_m)
            vel_errors.append(report.radial_velocity_mps - truth.radial_velocity_mps)
            if fired:
                hits += 1
            else:
                misses += 1
            rows.append(
                f"{trial},{truth.range_m:.6f},{report.range_m:.6f},"
                f"{truth.radial_velocity_mps:.6f},{report.radial_velocity_mps:.6f},"
                f"{int(bool(fired))}"
            )
        else:
            # Noise-only scene: any firing is a false alarm.
            if fired:
                misses += 1
            else:
                hits += 1
            rows.append(f"{trial},,,{'':s},,{int(bool(fired))}")

    def rmse(errors: list[float]) -> float:
        return float(np.sqrt(np.mean(np.square(errors)))) if errors else 0.0

    result = AccuracyReport(
        trials=cfg.accuracy_trials,
        range_rmse_m=rmse(range_errors),
        velocity_rmse_mps=rmse(vel_errors),
        range_errors_m=range_errors,
        velocity_errors_mps=vel_errors,
        trigger_hits=hits,
        trigger_misses=misses,
    )
    _write_run(cfg.out_dir, result.to_dict(), {"accuracy": rows})
    return result
