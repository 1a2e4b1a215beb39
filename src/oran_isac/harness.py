"""Experiment orchestration: wires simulator, dApp, transport, and xApp.

Three experiments, mirroring the prototype methodology at desk scale:

* Periodicity control: walk a reporting-period schedule (default
  100 -> 20 -> 10 ms) and measure per-segment inter-arrival statistics.
* Closed-loop latency: at a fixed period, pair every indication with a no-op
  control command and decompose the loop into telemetry and control parts.
  The no-op keeps the dApp's deadline grid, so the probes run at the period.
* Sensing accuracy: run the estimation pipeline over seeded scenes and score
  range/velocity errors against simulator ground truth.

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
from .dapp import (
    DappConfig,
    SensingDapp,
    delay_doppler_map,
    estimate_kpis,
    evaluate_triggers,
)
from .e2sm import SubscriptionMode, TriggerConfig
from .ofh import BeamTable, WaveformConfig, waveform_from_dict
# SceneParseError is imported for callers: load_config and run_sensing_accuracy raise it.
from .radio import (
    EchoScene,
    SceneParseError,
    Target,
    apply_scene,
    generate_probe,
    load_scene,
    scene_echo,
    scene_from_dict,
)
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
    seed: int = 0
    scene: EchoScene = field(default_factory=lambda: EchoScene(
        targets=(Target(range_m=45.0, radial_velocity_mps=10.0, azimuth_deg=0.0),),
        snr_db=20.0,
        residual_si_power_db=-20.0,
    ))
    waveform: WaveformConfig = field(default_factory=default_waveform)
    beam_table: BeamTable = field(default_factory=default_beam_table)
    policy: A1IsacPolicy = field(default_factory=lambda: A1IsacPolicy(
        min_period_ms=5.0, max_period_ms=1000.0))
    accuracy_trials: int = 200
    out_dir: Path | None = None


_CONFIG_FIELDS = {
    "transport": EndpointKind,
    "schedule_ms": lambda schedule: tuple(float(x) for x in schedule),
    "segment_duration_s": float,
    "probe_period_ms": float,
    "num_probes": int,
    "seed": int,
    "accuracy_trials": int,
}


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Build an experiment configuration from a JSON document.

    ``scene``, ``waveform`` and ``policy`` go through their own documents'
    parsers; a key the document leaves out keeps its ``ExperimentConfig``
    default. ``overrides`` replace fields after the document is read.
    """
    doc = json.loads(Path(path).read_text())
    cfg = ExperimentConfig(**{key: parse(doc[key])
                              for key, parse in _CONFIG_FIELDS.items() if key in doc})
    if "scene" in doc:
        scene = doc["scene"]
        if isinstance(scene, dict):
            # A scene without a seed of its own takes the experiment's.
            scene = {"seed": cfg.seed, **scene}
        cfg.scene = scene_from_dict(scene)
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
        beam_table=cfg.beam_table,
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


def run_sensing_accuracy(cfg: ExperimentConfig,
                         scene_path: str | Path | None = None,
                         trigger: TriggerConfig | None = None) -> AccuracyReport:
    """Score the estimation pipeline against simulator ground truth."""
    scene = cfg.scene if scene_path is None else load_scene(scene_path)

    wf = replace(cfg.waveform, num_symbols=max(cfg.waveform.num_symbols, 64))
    grid, time_probe = generate_probe(wf, seed=cfg.seed)
    beam = 4 if 4 in cfg.beam_table else next(iter(cfg.beam_table.entries))
    trig = trigger or TriggerConfig(echo_energy_threshold_db=-40.0)
    # Trials differ only by seed, so they share one noise-free echo.
    echo = scene_echo(time_probe, wf, scene, beam, cfg.beam_table)

    range_errors: list[float] = []
    vel_errors: list[float] = []
    hits = misses = 0
    rows: list[str] = []
    for trial in range(cfg.accuracy_trials):
        trial_scene = replace(scene, seed=scene.seed + trial)
        block, truth = apply_scene(time_probe, wf, trial_scene, beam, cfg.beam_table,
                                   echo=echo)
        power_map = delay_doppler_map(block, wf, grid)
        report = estimate_kpis(power_map, wf, cfg.beam_table, beam,
                               sequence_number=trial + 1)
        fired = evaluate_triggers(report, None, trig)
        if trial_scene.targets:
            strongest = int(np.argmax([
                t.amplitude * g for t, g in zip(trial_scene.targets, truth.beam_gains)
            ]))
            true_range = trial_scene.targets[strongest].range_m
            true_vel = trial_scene.targets[strongest].radial_velocity_mps
            range_errors.append(report.range_m - true_range)
            vel_errors.append(report.radial_velocity_mps - true_vel)
            if fired:
                hits += 1
            else:
                misses += 1
            rows.append(
                f"{trial},{true_range:.6f},{report.range_m:.6f},"
                f"{true_vel:.6f},{report.radial_velocity_mps:.6f},{int(bool(fired))}"
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
