"""Monostatic simulator tests: probe generation, scene application, ground truth."""

import math

import numpy as np
import pytest

from oran_isac.ofh import BeamTable, WaveformConfig
from oran_isac.radio import (
    SPEED_OF_LIGHT,
    DelayExceedsBurst,
    EchoScene,
    Target,
    apply_scene,
    beam_gain,
    SceneParseError,
    generate_probe,
    load_scene,
    scene_from_dict,
)


def make_cfg(fft_size=64, cp_length=16, num_symbols=4, bandwidth=None,
             scs=None, fc=3.5e9):
    scs = scs if scs is not None else 100e6 / fft_size
    return WaveformConfig(
        fft_size=fft_size,
        cp_length=cp_length,
        subcarrier_spacing=scs,
        pilot_pattern="qpsk-prs",
        carrier_frequency=fc,
        bandwidth=bandwidth if bandwidth is not None else fft_size * scs,
        num_symbols=num_symbols,
    )


BEAMS = BeamTable({0: (0.0, 0.0), 1: (30.0, 0.0)})


class TestGenerateProbe:
    def test_length(self):
        _, probe = generate_probe(make_cfg(fft_size=64, cp_length=16, num_symbols=4))
        assert len(probe) == 4 * (64 + 16)

    def test_deterministic(self):
        cfg = make_cfg()
        g1, p1 = generate_probe(cfg, seed=7)
        g2, p2 = generate_probe(cfg, seed=7)
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(p1, p2)

    def test_seed_changes_probe(self):
        cfg = make_cfg()
        _, p1 = generate_probe(cfg, seed=1)
        _, p2 = generate_probe(cfg, seed=2)
        assert not np.allclose(p1, p2)

    def test_pattern_changes_probe(self):
        cfg = make_cfg()
        other = make_cfg()
        other = WaveformConfig(**{**vars(other), "pilot_pattern": "other"})
        _, p1 = generate_probe(cfg, seed=1)
        _, p2 = generate_probe(other, seed=1)
        assert not np.allclose(p1, p2)

    def test_pilots_unit_magnitude(self):
        grid, _ = generate_probe(make_cfg())
        np.testing.assert_allclose(np.abs(grid), 1.0, rtol=1e-12)

    def test_mean_power_near_unity(self):
        # Empirical over 100 seeds; the grid is unit-magnitude so Parseval
        # pins the time-domain power at exactly 1 per symbol body.
        powers = []
        cfg = make_cfg(fft_size=64)
        for seed in range(100):
            _, probe = generate_probe(cfg, seed=seed)
            powers.append(np.mean(np.abs(probe) ** 2))
        assert 0.9 <= np.mean(powers) <= 1.1


class TestApplyScene:
    def test_noise_only_scene(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        scene = EchoScene(targets=(), snr_db=10.0)
        block, truth = apply_scene(probe, cfg, scene, 0, BEAMS)
        # Reference power is the unit probe; SNR 10 dB means noise power 0.1.
        assert np.mean(np.abs(block.samples) ** 2) == pytest.approx(0.1, rel=0.2)
        assert truth.delays_s == ()

    def test_integer_delay_is_circular_shift(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        k = 10
        rng = k * SPEED_OF_LIGHT / (2 * cfg.sample_rate)
        scene = EchoScene(targets=(Target(rng, 0.0, 0.0, amplitude=0.25),))
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        expected = 0.5 * np.roll(probe, k)
        np.testing.assert_allclose(block.samples, expected, rtol=0, atol=1e-6)

    def test_ground_truth_delay(self):
        cfg = make_cfg(fft_size=256, cp_length=64, num_symbols=8)
        _, probe = generate_probe(cfg)
        scene = EchoScene(targets=(Target(150.0, 0.0, 0.0),))
        _, truth = apply_scene(probe, cfg, scene, 0, BEAMS)
        assert truth.delays_s[0] == 2 * 150.0 / SPEED_OF_LIGHT
        # 1.0007 us at 100 MHz: about 100 sample periods (exactly 100 under c=3e8)
        assert truth.delays_s[0] * cfg.sample_rate == pytest.approx(100.0, rel=1e-3)

    def test_ground_truth_doppler_sign(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        scene = EchoScene(targets=(Target(10.0, 5.0, 0.0),))
        _, truth = apply_scene(probe, cfg, scene, 0, BEAMS)
        assert truth.dopplers_hz[0] > 0
        assert truth.dopplers_hz[0] == 2 * 5.0 * cfg.carrier_frequency / SPEED_OF_LIGHT

    def test_two_targets_superpose(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        t1 = Target(15.0, 3.0, 0.0, amplitude=1.0)
        t2 = Target(40.0, -7.0, 2.0, amplitude=0.5)
        both, _ = apply_scene(probe, cfg, EchoScene(targets=(t1, t2)), 0, BEAMS)
        only1, _ = apply_scene(probe, cfg, EchoScene(targets=(t1,)), 0, BEAMS)
        only2, _ = apply_scene(probe, cfg, EchoScene(targets=(t2,)), 0, BEAMS)
        np.testing.assert_allclose(
            both.samples, only1.samples + only2.samples, atol=1e-12)

    def test_delay_beyond_burst_rejected(self):
        cfg = make_cfg(num_symbols=1)
        _, probe = generate_probe(cfg)
        rng = cfg.burst_duration * SPEED_OF_LIGHT  # delay = 2x burst
        with pytest.raises(DelayExceedsBurst):
            apply_scene(probe, cfg, EchoScene(targets=(Target(rng, 0, 0),)), 0, BEAMS)

    def test_deterministic_blocks(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        scene = EchoScene(targets=(Target(20.0, 4.0, 1.0),), snr_db=15.0, seed=9)
        b1, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        b2, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        np.testing.assert_array_equal(b1.samples, b2.samples)
        assert b1.metadata == b2.metadata

    def test_residual_si_power(self):
        cfg = make_cfg(num_symbols=8)
        _, probe = generate_probe(cfg)
        scene = EchoScene(targets=(), residual_si_power_db=-20.0)
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        si_power = np.mean(np.abs(block.samples) ** 2)
        assert si_power == pytest.approx(0.01, rel=0.05)

    def test_snr_calibrated_to_strongest_echo(self):
        cfg = make_cfg(num_symbols=8)
        _, probe = generate_probe(cfg)
        target = Target(20.0, 0.0, 0.0, amplitude=4.0)  # on-boresight, gain 1
        noisy, _ = apply_scene(probe, cfg, EchoScene((target,), snr_db=20.0, seed=3), 0, BEAMS)
        clean, _ = apply_scene(probe, cfg, EchoScene((target,)), 0, BEAMS)
        noise_power = np.mean(np.abs(noisy.samples - clean.samples) ** 2)
        assert noise_power == pytest.approx(4.0 / 100.0, rel=0.2)

    def test_metadata_flags(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        block, _ = apply_scene(probe, cfg, EchoScene(), 1, BEAMS,
                               waveform_id=5, tx_timestamp=1234)
        assert block.metadata.sensing_flag
        assert block.metadata.beam_index == 1
        assert block.metadata.waveform_id == 5
        assert block.metadata.tx_timestamp == 1234


class TestBeamGain:
    def test_boresight_unity(self):
        assert beam_gain(0.0, 0.0) == 1.0

    def test_sidelobe_floor(self):
        assert beam_gain(90.0, 0.0) == pytest.approx(1e-3)

    def test_wraparound(self):
        assert beam_gain(-179.0, 179.0) == beam_gain(1.0, -1.0)

    def test_monotone_near_mainlobe(self):
        gains = [beam_gain(d, 0.0) for d in (0.0, 2.0, 4.0, 6.0)]
        assert gains == sorted(gains, reverse=True)


def test_load_scene(tmp_path):
    doc = """{
      "targets": [{"range_m": 45.0, "radial_velocity_mps": 10.0,
                   "azimuth_deg": 0.0, "amplitude": 1.0}],
      "snr_db": 20.0, "residual_si_power_db": -20.0, "seed": 5
    }"""
    path = tmp_path / "scene.json"
    path.write_text(doc)
    scene = load_scene(path)
    assert scene.targets[0].range_m == 45.0
    assert scene.snr_db == 20.0
    assert scene.seed == 5


def test_load_scene_defaults(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text('{"targets": []}')
    scene = load_scene(path)
    assert scene.snr_db == math.inf
    assert scene.residual_si_power_db == -math.inf


@pytest.mark.parametrize("text", [
    "{not json",
    "[]",
    '{"targets": [{"speed": 3}]}',
    '{"targets": [{"range_m": -1.0}]}',
    '{"snr_db": "loud"}',
    '{"seed": 3.9}',
    '{"seed": true}',
    '{"seed": "3"}',
])
def test_load_scene_malformed(tmp_path, text):
    path = tmp_path / "scene.json"
    path.write_text(text)
    with pytest.raises(SceneParseError):
        load_scene(path)


def test_scene_seed_error_names_the_field():
    with pytest.raises(SceneParseError, match="scene field 'seed': expected a JSON integer"):
        scene_from_dict({"seed": 3.9})
