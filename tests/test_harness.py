"""Experiment harness smoke tests at reduced scale."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from oran_isac.control import A1IsacPolicy, PolicyViolation, XApp, load_policy
from oran_isac.harness import (
    ConfigParseError,
    ExperimentConfig,
    SceneParseError,
    SetupFailure,
    _subscribed_stack,
    default_beam_table,
    default_waveform,
    load_config,
    run_experiment_a,
    run_experiment_b,
    run_sensing_accuracy,
)
from oran_isac.radio import BEAMWIDTH_DEG, SPEED_OF_LIGHT, EchoScene, Target, load_scene
from oran_isac.transport import EndpointKind, channel_pair

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"

# SHA-256 over accuracy.csv then summary.json of 200 sensing trials of
# configs/scene.json. A change to it means the `sense` outputs changed.
SENSE_DIGEST = "8ac21e0c999d0fb50fae14a4288995acb45e383422c94c197969b8879df4cfa9"


def small_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        schedule_ms=(50.0, 20.0),
        segment_duration_s=0.6,
        probe_period_ms=10.0,
        num_probes=30,
        accuracy_trials=8,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_default_waveform_shape():
    wf = default_waveform()
    assert wf.fft_size == 256
    assert wf.sample_rate == pytest.approx(100e6)
    assert wf.bandwidth == 100e6


def test_default_beam_table_spans_sector():
    beams = default_beam_table()
    assert len(beams.entries) == 9
    assert beams.entries[0][0] == -60.0
    assert beams.entries[8][0] == 60.0


class TestLoadConfig:
    def test_overrides_and_scene(self, tmp_path):
        doc = {
            "schedule_ms": [40, 10],
            "segment_duration_s": 1.5,
            "num_probes": 123,
            "transport": "tcp",
            "scene": {
                "targets": [{"range_m": 30.0, "radial_velocity_mps": 5.0}],
                "snr_db": 15.0,
            },
            "policy": {"min_period_ms": 2.0, "max_period_ms": 500.0},
            "seed": 7,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        cfg = replace(load_config(path), accuracy_trials=9)
        assert cfg.schedule_ms == (40.0, 10.0)
        assert cfg.num_probes == 123
        assert cfg.transport == EndpointKind.TCP
        assert cfg.scene.targets[0].range_m == 30.0
        assert cfg.scene.snr_db == 15.0
        assert cfg.policy.min_period_ms == 2.0
        assert cfg.scene.seed == 7
        assert cfg.accuracy_trials == 9

    def test_missing_snr_means_noiseless(self, tmp_path):
        import math
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scene": {"targets": []}}))
        cfg = load_config(path)
        assert cfg.scene.snr_db == math.inf
        assert cfg.scene.residual_si_power_db == -math.inf

    def test_bad_scene_raises(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"scene": {"targets": [{"speed": 3}]}}))
        with pytest.raises(SceneParseError):
            load_config(path)

    def test_non_object_scene_raises(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"seed": 4, "scene": [1]}))
        with pytest.raises(SceneParseError, match="scene: expected a JSON object"):
            load_config(path)

    def test_scene_takes_experiment_seed_unless_it_has_its_own(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"seed": 4, "scene": {"targets": []}}))
        assert load_config(path).scene.seed == 4
        path.write_text(json.dumps({"seed": 4, "scene": {"targets": [], "seed": 9}}))
        assert load_config(path).scene.seed == 9
        path.write_text(json.dumps({"seed": 4}))
        assert load_config(path).scene == replace(ExperimentConfig().scene, seed=4)

    @pytest.mark.parametrize("text, match", [
        ('{"num_probes": "x"}', "field 'num_probes'"),
        ('{"seed": "x"}', "field 'seed'"),
        ('{"transport": "udp"}', "field 'transport'"),
        ('{"schedule_ms": 5}', "field 'schedule_ms'"),
        ('{"schedule_ms": "50"}', "field 'schedule_ms'"),
        ('[1, 2]', "expected a JSON object, got list"),
        ('{"num_probes": 3', "not valid JSON"),
        ('{"num_probes": 1.5}', "field 'num_probes'"),
        ('{"accuracy_trials": true}', "field 'accuracy_trials'"),
        ('{"seed": 2.7}', "field 'seed'"),
        ('{"num_probes": "5"}', "field 'num_probes'"),
        ('{"num_probe": 5}', "field 'num_probe'"),
        ('{"sede": 3}', "field 'sede'"),
        ('{"out_dir": "results"}', "field 'out_dir'"),
        ('{"seed": -1}', "field 'seed'"),
        ('{"schedule_ms": [-5]}', "field 'schedule_ms'"),
        ('{"schedule_ms": []}', "field 'schedule_ms'"),
        ('{"probe_period_ms": 0}', "field 'probe_period_ms'"),
        ('{"segment_duration_s": -1}', "field 'segment_duration_s'"),
        ('{"num_probes": 0}', "field 'num_probes'"),
    ], ids=["num-probes", "seed", "transport", "schedule", "schedule-string", "not-object",
         "bad-json", "float-count", "bool-count", "float-seed", "string-count",
         "misspelled-count", "misspelled-seed", "out-dir", "negative-seed",
         "negative-period", "empty-schedule", "zero-probe-period", "negative-duration",
         "zero-probes"])
    def test_malformed_document_raises_typed_error(self, tmp_path, text, match):
        path = tmp_path / "exp.json"
        path.write_text(text)
        with pytest.raises(ConfigParseError, match=match) as err:
            load_config(path)
        assert str(path) in str(err.value)

    def test_policy_geographic_scope_is_enforced(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"policy": {"geographic_scope": [[-10, 10]]}}))
        cfg = load_config(path)
        _, xapp_end = channel_pair()
        xapp = XApp(xapp_end, policy=cfg.policy, beam_table=default_beam_table())
        with pytest.raises(PolicyViolation):
            xapp.set_beam(8)

    def test_an_xapp_without_a_beam_table_says_so(self):
        _, xapp_end = channel_pair()
        xapp = XApp(xapp_end)
        sent = []
        xapp.channel.send = sent.append
        with pytest.raises(PolicyViolation, match="no beam table"):
            xapp.set_beam(4)
        assert sent == []


class TestConfigFiles:
    """Every example document loads through its own loader."""

    LOADERS = {
        "experiment.json": load_config,
        "policy.json": load_policy,
        "scene.json": load_scene,
    }

    def test_every_file_has_a_loader_and_loads(self):
        assert {p.name for p in CONFIGS.iterdir()} == set(self.LOADERS)
        for name, loader in self.LOADERS.items():
            loader(CONFIGS / name)

    def test_experiment_values_reach_config(self):
        doc = json.loads((CONFIGS / "experiment.json").read_text())
        cfg = load_config(CONFIGS / "experiment.json")
        assert cfg.schedule_ms == tuple(doc["schedule_ms"])
        assert cfg.segment_duration_s == doc["segment_duration_s"]
        assert cfg.probe_period_ms == doc["probe_period_ms"]
        assert cfg.num_probes == doc["num_probes"]
        assert cfg.accuracy_trials == doc["accuracy_trials"]
        assert cfg.transport == EndpointKind(doc["transport"])
        (target,) = doc["scene"]["targets"]
        assert cfg.scene.targets[0].range_m == target["range_m"]
        assert cfg.scene.targets[0].radial_velocity_mps == target["radial_velocity_mps"]
        assert cfg.scene.snr_db == doc["scene"]["snr_db"]
        assert cfg.scene.residual_si_power_db == doc["scene"]["residual_si_power_db"]
        assert cfg.scene.seed == doc["seed"]
        assert cfg.policy.min_period_ms == doc["policy"]["min_period_ms"]
        assert cfg.policy.max_period_ms == doc["policy"]["max_period_ms"]


class TestExperimentA:
    def test_smoke_run_writes_outputs(self, tmp_path):
        cfg = small_config(out_dir=tmp_path / "a")
        summary = run_experiment_a(cfg)
        assert summary.sample_count > 10
        assert summary.metadata["sequence_gaps"] == 0
        assert len(summary.segments) == 2
        # Each segment mean should track its target period at desk scale.
        for seg in summary.segments:
            assert seg.mean_ms == pytest.approx(seg.target_ms, rel=0.25)
        doc = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert doc["metadata"]["experiment"] == "periodicity-control"
        lines = (tmp_path / "a" / "interarrival.csv").read_text().splitlines()
        assert lines[0] == "time_s,inter_arrival_ms,target_ms"
        assert len(lines) > 10

    def test_empty_schedule_rejected(self):
        with pytest.raises(SetupFailure):
            run_experiment_a(small_config(schedule_ms=()))


class TestExperimentB:
    def test_smoke_run_identity_and_outputs(self, tmp_path):
        cfg = small_config(out_dir=tmp_path / "b")
        summary = run_experiment_b(cfg)
        assert summary.sample_count == cfg.num_probes
        assert summary.closed_loop_ms["p50"] >= summary.telemetry_ms["p50"]
        assert set(summary.compliance) == {
            "vehicular_perception", "uav_tracking",
            "industrial_control", "beam_management",
        }
        out = tmp_path / "b"
        for name in ("latency_cdf.csv", "breakdown.csv", "samples.csv",
                     "summary.json"):
            assert (out / name).exists()
        breakdown = (out / "breakdown.csv").read_text().splitlines()
        assert breakdown[0] == "sequence_number,telemetry_ms,control_ms,closed_loop_ms"
        for line in breakdown[1:]:
            _, t, c, l = line.split(",")
            assert float(l) == pytest.approx(float(t) + float(c), abs=1e-9)
        # Each row of stamps reproduces its breakdown row.
        stamps = (out / "samples.csv").read_text().splitlines()
        assert stamps[0] == "sequence_number,t0_ns,t1_ns,t_cmd_issue_ns,t_cmd_applied_ns"
        assert len(stamps) == len(breakdown)
        for row, line in zip(stamps[1:], breakdown[1:]):
            seq, t0, t1, issue, applied = map(int, row.split(","))
            assert line == (f"{seq},{(t1 - t0) / 1e6:.6f},{(applied - issue) / 1e6:.6f},"
                            f"{(t1 - t0 + applied - issue) / 1e6:.6f}")

    def test_tcp_transport_smoke(self):
        # exp-b reads no schedule: an empty one must not stop it.
        cfg = small_config(num_probes=10, transport=EndpointKind.TCP, schedule_ms=())
        summary = run_experiment_b(cfg)
        assert summary.sample_count == 10
        assert summary.metadata["transport"] == "tcp"

    @pytest.mark.parametrize("run", [run_experiment_a, run_experiment_b])
    @pytest.mark.parametrize("range_m", [
        8000.0, default_waveform().burst_duration * SPEED_OF_LIGHT / 2.0,
    ], ids=["far", "one-burst-away"])
    def test_a_scene_no_burst_can_carry_starts_no_thread(self, run, range_m):
        cfg = small_config(num_probes=5,
                           scene=EchoScene(targets=(Target(range_m),), snr_db=20.0))
        threads = threading.active_count()
        start = time.monotonic()
        with pytest.raises(SetupFailure, match=f"target at {range_m} m"):
            run(cfg)
        assert time.monotonic() - start < 1.0
        assert threading.active_count() == threads

    @pytest.mark.parametrize("run", [run_experiment_a, run_experiment_b])
    def test_a_refused_subscribe_stops_both_loops(self, run):
        # The default policy's floor is 5 ms, so the first subscribe is refused.
        cfg = small_config(num_probes=5, probe_period_ms=2.0, schedule_ms=(2.0,))
        threads = threading.active_count()
        with pytest.raises(PolicyViolation, match="period 2.0 ms outside"):
            run(cfg)
        assert threading.active_count() == threads

    def test_a_live_report_probes_the_strongest_targets_beam(self):
        cfg = small_config()
        strongest = max(cfg.scene.targets, key=lambda t: t.amplitude)
        with _subscribed_stack(cfg, 20.0) as (_, xapp, _, _):
            report = xapp.await_report(0, timeout=2.0).report
        beam_az, _ = default_beam_table().direction(report.beam_index)
        assert abs(beam_az - strongest.azimuth_deg) <= BEAMWIDTH_DEG

    def test_the_scope_judges_the_direction_of_the_beam_it_names(self):
        # The default table steers beam 4 to 0 degrees and beam 8 to 60.
        cfg = small_config(policy=A1IsacPolicy(geographic_scope=((-10.0, 10.0),),
                                               min_period_ms=5.0))
        with _subscribed_stack(cfg, 20.0) as (dapp, xapp, _, _):
            sent = []
            send = xapp.channel.send
            xapp.channel.send = lambda frame: (sent.append(frame), send(frame))[1]
            with pytest.raises(PolicyViolation, match="OUT_OF_GEOGRAPHIC_SCOPE"):
                xapp.set_beam(8)
            with pytest.raises(PolicyViolation, match="beam 9 is not in the beam table"):
                xapp.set_beam(9)
            assert sent == []
            xapp.set_beam(4)
            assert len(sent) == 1
        assert dapp.config.active_beam == 4
        assert dapp.refused_commands == 0


DAPP_COUNTERS = {"dropped_blocks", "late_bursts", "local_noise_draws", "refused_commands",
                 "decode_errors", "burst_errors", "unexpected_frames", "protocol_violations",
                 "transport_drops"}
XAPP_COUNTERS = {"late_replies", "decode_errors", "unexpected_replies",
                 "unexpected_frames", "transport_drops"}


class TestCounters:
    def test_the_stack_reads_both_sides_counters_once_it_stops(self):
        # Ten bytes with version byte 9: neither side can decode them.
        bad = bytes([9]) + bytes(9)
        with _subscribed_stack(small_config(), 20.0) as (dapp, xapp, _, counters):
            assert counters == {}
            dapp.channel.send(bad)
            xapp.channel.send(bad)
            deadline = time.monotonic() + 2.0
            while not (dapp.decode_errors and xapp.decode_errors) \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
        assert set(counters) == {"dapp", "xapp"}
        assert set(counters["dapp"]) == DAPP_COUNTERS
        assert set(counters["xapp"]) == XAPP_COUNTERS
        assert counters["dapp"]["decode_errors"] == {"UnknownVersion": 1}
        assert counters["xapp"]["decode_errors"] == {"UnknownVersion": 1}
        assert counters["dapp"]["late_bursts"] == dapp.late_bursts
        assert counters["dapp"]["protocol_violations"] == 0
        assert counters["xapp"]["late_replies"] == 0

    @pytest.mark.parametrize("run", [run_experiment_a, run_experiment_b])
    def test_exp_a_and_exp_b_write_both_records(self, tmp_path, run):
        cfg = small_config(schedule_ms=(20.0,), segment_duration_s=0.3,
                           out_dir=tmp_path / "run")
        summary = run(cfg)
        doc = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert doc["dapp_counters"] == summary.dapp_counters
        assert doc["xapp_counters"] == summary.xapp_counters
        assert set(doc["dapp_counters"]) == DAPP_COUNTERS
        assert set(doc["xapp_counters"]) == XAPP_COUNTERS
        assert doc["dapp_counters"]["decode_errors"] == {}

    @pytest.mark.parametrize("run", [run_experiment_a, run_experiment_b])
    def test_a_run_records_its_cold_first_report(self, tmp_path, run):
        """The first deadline lies one 10 ms period after the dApp accepts."""
        cfg = small_config(schedule_ms=(10.0,), segment_duration_s=0.3, num_probes=5,
                           out_dir=tmp_path / "run")
        summary = run(cfg)
        doc = json.loads((tmp_path / "run" / "summary.json").read_text())
        first = doc["metadata"]["first_report_ms"]
        assert first == summary.metadata["first_report_ms"]
        assert math.isfinite(first) and first >= 10.0


class TestSensingAccuracy:
    def test_smoke_run_scores_against_truth(self, tmp_path):
        cfg = small_config(accuracy_trials=6, out_dir=tmp_path / "s")
        report = run_sensing_accuracy(cfg)
        assert report.trials == 6
        assert len(report.range_errors_m) == 6
        # Default scene: 45 m at 20 dB SNR stays well under one range bin.
        assert report.range_rmse_m < 1.5
        assert report.trigger_hits == 6
        lines = (tmp_path / "s" / "accuracy.csv").read_text().splitlines()
        assert lines[0].startswith("trial,true_range_m,est_range_m")
        assert len(lines) == 7

    def test_scene_file_override(self, tmp_path, capsys):
        from oran_isac.cli import main
        scene = {
            "targets": [{"range_m": 60.0, "radial_velocity_mps": 0.0,
                         "azimuth_deg": 0.0, "amplitude": 1.0}],
            "snr_db": 30.0,
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        assert main(["sense", "--trials", "4", "--scene", str(path),
                     "--out", str(tmp_path / "s")]) == 0
        assert json.loads(capsys.readouterr().out)["range_rmse_m"] < 1.5
        true_ranges = {line.split(",")[1] for line in
                       (tmp_path / "s" / "accuracy.csv").read_text().splitlines()[1:]}
        assert true_ranges == {"60.000000"}

    def test_bad_scene_file(self, tmp_path, capsys):
        from oran_isac.cli import main
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as exit_:
            main(["sense", "--scene", str(path), "--out", str(tmp_path / "s")])
        assert exit_.value.code == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_outputs_digest(self, tmp_path):
        cfg = ExperimentConfig(scene=load_scene(CONFIGS / "scene.json"),
                               accuracy_trials=200, out_dir=tmp_path)
        run_sensing_accuracy(cfg)
        h = hashlib.sha256()
        for name in ("accuracy.csv", "summary.json"):
            h.update((tmp_path / name).read_bytes())
        assert h.hexdigest() == SENSE_DIGEST

    def test_reproducible_given_seed(self):
        scene = replace(ExperimentConfig().scene, seed=3)
        cfg1 = small_config(accuracy_trials=4, scene=scene)
        cfg2 = small_config(accuracy_trials=4, scene=scene)
        r1 = run_sensing_accuracy(cfg1)
        r2 = run_sensing_accuracy(cfg2)
        assert r1.range_errors_m == r2.range_errors_m
        assert r1.velocity_errors_mps == r2.velocity_errors_mps


class TestCli:
    def test_sense_subcommand(self, tmp_path, capsys):
        from oran_isac.cli import main
        rc = main(["sense", "--trials", "3", "--out", str(tmp_path / "out"),
                   "--seed", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 3
        assert (tmp_path / "out" / "accuracy.csv").exists()

    def test_exp_b_subcommand(self, tmp_path, capsys):
        from oran_isac.cli import main
        rc = main(["exp-b", "--probes", "12", "--period-ms", "10",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sample_count"] == 12

    def test_exp_a_subcommand(self, tmp_path, capsys):
        from oran_isac.cli import main
        rc = main(["exp-a", "--schedule", "40,20", "--duration-s", "0.5",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["schedule_ms"] == [40.0, 20.0]

    @pytest.mark.parametrize("doc, flags, reason", [
        ({"num_probes": 5, "probe_period_ms": 10.0,
          "scene": {"targets": [{"range_m": 8000.0}], "snr_db": 20.0}}, [],
         "scene does not fit the burst"),
        ({}, ["--period-ms", "2", "--probes", "5"], "period 2.0 ms outside"),
    ], ids=["far-scene", "period-below-policy"])
    def test_a_refused_run_exits_1_with_one_line(self, doc, flags, reason, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        run = subprocess.run([sys.executable, "-m", "oran_isac.cli", "exp-b", "--config", str(path),
                              *flags, "--out", str(tmp_path / "out")],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert run.returncode == 1, run.stderr
        assert "Traceback" not in run.stderr
        assert run.stderr.splitlines() == [run.stderr.strip()]
        assert run.stderr.startswith(f"oran-isac exp-b: {reason}")
        assert run.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["sense", "--transport", "tcp"],
        ["sense", "--duration-s", "3"],
        ["exp-b", "--duration-s", "3"],
    ], ids=["sense-transport", "sense-duration", "exp-b-duration"])
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(self, argv):
        from oran_isac.cli import _build_parser
        with pytest.raises(SystemExit) as exit_:
            _build_parser().parse_args(argv)
        assert exit_.value.code == 2

    def test_config_file_values_are_honoured(self, tmp_path, capsys):
        from oran_isac.cli import main
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"num_probes": 7, "probe_period_ms": 5.0,
                                    "transport": "tcp", "accuracy_trials": 3}))
        assert main(["exp-b", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sample_count"] == 7
        assert doc["metadata"]["transport"] == "tcp"
        assert doc["metadata"]["probe_period_ms"] == 5.0
        assert main(["sense", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 3

    def test_given_flag_overrides_config(self, tmp_path, capsys):
        from oran_isac.cli import main
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"num_probes": 7, "transport": "tcp",
                                    "accuracy_trials": 3}))
        assert main(["exp-b", "--config", str(path), "--probes", "4",
                     "--transport", "inproc", "--out", str(tmp_path / "b")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sample_count"] == 4
        assert doc["metadata"]["transport"] == "inproc"
        assert main(["sense", "--config", str(path), "--trials", "2",
                     "--out", str(tmp_path / "s")]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 2

    @pytest.mark.parametrize("argv", [
        ["exp-a"], ["exp-b"], ["sense"],
        ["exp-a", "--config", "experiment.json"],
        ["exp-b", "--config", "experiment.json"],
        ["sense", "--config", "experiment.json"],
        ["sense", "--scene", "scene.json"],
    ], ids=["exp-a", "exp-b", "sense", "exp-a-config", "exp-b-config", "sense-config",
            "sense-scene"])
    def test_seed_sets_the_scene_seed(self, argv, monkeypatch):
        from oran_isac.cli import _build_parser, _config_from_args
        monkeypatch.chdir(CONFIGS)
        cfg = _config_from_args(_build_parser().parse_args([*argv, "--seed", "7"]))
        assert cfg.scene.seed == 7

    @pytest.mark.parametrize("argv, flag", [
        (["exp-b", "--seed", "-1", "--probes", "3"], "--seed"),
        (["sense", "--seed", "-1"], "--seed"),
        (["exp-b", "--probes", "-3"], "--probes"),
        (["sense", "--trials", "-3"], "--trials"),
        (["exp-a", "--schedule", "0"], "--schedule"),
        (["exp-a", "--schedule", "20,nan"], "--schedule"),
        (["exp-a", "--duration-s", "-1"], "--duration-s"),
        (["exp-b", "--period-ms", "nan"], "--period-ms"),
        (["exp-b", "--probes", "0"], "--probes"),
        (["sense", "--scene", str(CONFIGS / "policy.json")], "--scene"),
        (["exp-b", "--config", {"num_probes": 0}], "--config"),
        (["exp-b", "--config", {"scene": {"snr_db": "x"}}], "--config"),
    ], ids=["exp-b-seed", "sense-seed", "probes", "trials", "zero-schedule", "nan-schedule",
         "negative-duration", "nan-period", "zero-probes", "not-a-scene",
         "config-zero-probes", "config-bad-scene"])
    def test_bad_count_flag_exits_naming_it(self, argv, flag, capsys, tmp_path):
        from oran_isac.cli import _build_parser
        path = tmp_path / "exp.json"
        args = []
        for arg in argv:
            if isinstance(arg, dict):   # a --config document, written to a file
                path.write_text(json.dumps(arg))
                arg = str(path)
            args.append(arg)
        with pytest.raises(SystemExit) as exit_:
            _build_parser().parse_args(args)
        assert exit_.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
