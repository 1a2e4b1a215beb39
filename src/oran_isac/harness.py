"""Experiment orchestration: wires simulator, dApp, transport, and xApp.

Three experiments, mirroring the prototype methodology at desk scale:

* Periodicity control: walk a reporting-period schedule (default
  100 -> 20 -> 10 ms) and measure per-segment inter-arrival statistics.
* Closed-loop latency: at a fixed period, pair every indication with a no-op
  control command and decompose the loop into telemetry and control parts.
  The no-op keeps the dApp's deadline grid, so the probes run at the period.
* Sensing accuracy: run the dApp's own sensing pipeline over seeded bursts
  and score range/velocity errors against simulator ground truth.

All outputs are CSV plus a summary JSON; published prototype numbers are
attached as clearly labeled annotations, never as pass/fail criteria.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clock import SharedClock
from .control import A1IsacPolicy, XApp, policy_from_dict, write_sample_log
from .dapp import DappConfig, SensingDapp, evaluate_triggers
from .e2sm import SubscriptionMode, TriggerConfig
from .ofh import BeamTable, WaveformConfig, waveform_from_dict
# SceneParseError is imported for callers: load_config raises it.
from .radio import EchoScene, SceneParseError, Target, beam_gain, json_int, scene_from_dict
from .stats import (
    ExperimentSummary,
    compliance_table,
    latency_percentiles_ms,
    segment_stats,
    write_ecdf_csv,
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


def _schedule_field(periods) -> tuple[float, ...]:
    # A string is iterable too: "50" would read as the periods (5.0, 0.0).
    if not isinstance(periods, list):
        raise TypeError(f"expected a list of periods in ms, got {type(periods).__name__}")
    return tuple(float(x) for x in periods)


_CONFIG_FIELDS = {
    "transport": EndpointKind,
    "schedule_ms": _schedule_field,
    "segment_duration_s": float,
    "probe_period_ms": float,
    "num_probes": json_int,
    "accuracy_trials": json_int,
}


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Build an experiment configuration from a JSON document.

    ``scene``, ``waveform`` and ``policy`` go through their own documents'
    parsers; a key the document leaves out keeps its ``ExperimentConfig``
    default. A top-level ``seed`` is the seed of a scene that has none of its
    own. ``overrides`` replace fields after the document is read. A document
    that is not a JSON object, or a malformed top-level field, raises
    ``ConfigParseError`` naming the document and the field.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigParseError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    parsed = {}
    # "seed" is a document field, not an ExperimentConfig one: it goes to the scene.
    for key, parse in {**_CONFIG_FIELDS, "seed": json_int}.items():
        if key in doc:
            try:
                parsed[key] = parse(doc[key])
            except (TypeError, ValueError) as e:
                raise ConfigParseError(f"{path} field {key!r}: {e}") from e
    seed = parsed.pop("seed", None)
    cfg = ExperimentConfig(**parsed)
    if "scene" in doc:
        cfg.scene = scene_from_dict(doc["scene"])
    if seed is not None and "seed" not in doc.get("scene", {}):
        cfg.scene = replace(cfg.scene, seed=seed)
    if "waveform" in doc:
        cfg.waveform = waveform_from_dict(doc["waveform"])
    if "policy" in doc:
        cfg.policy = policy_from_dict(doc["policy"])
    return replace(cfg, **overrides)


@dataclass
class _Stack:
    dapp: SensingDapp
    xapp: XApp

    def shutdown(self) -> None:
        self.xapp.stop()
        self.dapp.stop()


def _build_stack(cfg: ExperimentConfig, clock: SharedClock) -> _Stack:
    try:
        dapp_end, xapp_end = channel_pair(cfg.transport)
    except OSError as e:
        raise SetupFailure(f"transport setup failed: {e}") from e
    dapp = SensingDapp(
        config=DappConfig(report_period_ms=cfg.schedule_ms[0]),
        waveform_table={0: cfg.waveform},
        beam_table=default_beam_table(),
        scene=cfg.scene,
        channel=dapp_end,
        clock=clock,
    )
    xapp = XApp(xapp_end, policy=cfg.policy, clock=clock)
    dapp.start()
    xapp.start()
    return _Stack(dapp, xapp)


def run_experiment_a(cfg: ExperimentConfig) -> ExperimentSummary:
    """Periodicity control: execute the period schedule and score each segment."""
    if not cfg.schedule_ms:
        raise SetupFailure("empty period schedule")
    clock = SharedClock()
    stack = _build_stack(cfg, clock)
    boundaries: list[tuple[int, float]] = []  # (clock ns, target period)
    try:
        stack.xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=cfg.schedule_ms[0])
        boundaries.append((clock.now_ns(), cfg.schedule_ms[0]))
        for target in cfg.schedule_ms[1:]:
            time.sleep(cfg.segment_duration_s)
            stack.xapp.set_period(target)
            boundaries.append((clock.now_ns(), target))
        time.sleep(cfg.segment_duration_s)
        reports = list(stack.xapp.reports)
        drops = stack.dapp.channel.drops + stack.dapp.dropped_blocks
    finally:
        stack.shutdown()

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
        transport_drops=drops,
        sample_count=len(reports),
        metadata={
            "experiment": "periodicity-control",
            "schedule_ms": list(cfg.schedule_ms),
            "segment_duration_s": cfg.segment_duration_s,
            "transport": cfg.transport.value,
            "sequence_gaps": gaps,
        },
    )
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["time_s,inter_arrival_ms,target_ms"]
        lines += [f"{t:.6f},{i:.6f},{g}" for t, i, g in rows]
        (out / "interarrival.csv").write_text("\n".join(lines) + "\n")
        summary.write_json(out / "summary.json")
    return summary


def run_experiment_b(cfg: ExperimentConfig) -> ExperimentSummary:
    """Closed-loop latency: fixed period, paired telemetry + no-op control probes.

    Each probe waits for the next indication, then refreshes the period to its
    current value. The refresh leaves the report schedule alone, so
    ``num_probes`` probes take about ``num_probes * probe_period_ms``.
    """
    clock = SharedClock()
    stack = _build_stack(cfg, clock)
    try:
        stack.xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=cfg.probe_period_ms)
        for _ in range(cfg.num_probes):
            stack.xapp.closed_loop_probe()
        samples = list(stack.xapp.samples)
        drops = stack.dapp.channel.drops + stack.dapp.dropped_blocks
    finally:
        stack.shutdown()

    telemetry = [s.telemetry_latency_ns / 1e6 for s in samples]
    control = [s.control_latency_ns / 1e6 for s in samples]
    closed = [s.closed_loop_ns / 1e6 for s in samples]

    t50, t95, t99 = latency_percentiles_ms(telemetry)
    c50, c95, c99 = latency_percentiles_ms(control)
    l50, l95, l99 = latency_percentiles_ms(closed)
    summary = ExperimentSummary(
        telemetry_p50_ms=t50, telemetry_p95_ms=t95, telemetry_p99_ms=t99,
        control_p50_ms=c50, control_p95_ms=c95, control_p99_ms=c99,
        closed_loop_p50_ms=l50, closed_loop_p95_ms=l95, closed_loop_p99_ms=l99,
        compliance=compliance_table(closed),
        transport_drops=drops,
        sample_count=len(samples),
        metadata={
            "experiment": "closed-loop-latency",
            "probe_period_ms": cfg.probe_period_ms,
            "transport": cfg.transport.value,
        },
    )
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_ecdf_csv(telemetry, out / "latency_cdf.csv")
        lines = ["sequence_number,telemetry_ms,control_ms,closed_loop_ms"]
        lines += [
            f"{s.sequence_number},{t:.6f},{c:.6f},{l:.6f}"
            for s, t, c, l in zip(samples, telemetry, control, closed)
        ]
        (out / "breakdown.csv").write_text("\n".join(lines) + "\n")
        write_sample_log(samples, out / "samples.csv")
        summary.write_json(out / "summary.json")
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
    beam = 4  # boresight
    wf = replace(cfg.waveform, num_symbols=max(cfg.waveform.num_symbols, 64))
    dapp_end, _ = channel_pair()
    dapp = SensingDapp(DappConfig(active_beam=beam), {0: wf}, beams, scene, dapp_end)
    trig = TriggerConfig(echo_energy_threshold_db=-40.0)
    # Trials differ only by seed, so they share one strongest target.
    truth = None
    if scene.targets:
        beam_az, _ = beams.direction(beam)
        gains = [t.amplitude * beam_gain(t.azimuth_deg, beam_az) for t in scene.targets]
        truth = scene.targets[int(np.argmax(gains))]

    range_errors: list[float] = []
    vel_errors: list[float] = []
    hits = misses = 0
    rows: list[str] = []
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
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = "trial,true_range_m,est_range_m,true_velocity_mps,est_velocity_mps,trigger_fired"
        (out / "accuracy.csv").write_text("\n".join([header] + rows) + "\n")
        (out / "summary.json").write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    return result
