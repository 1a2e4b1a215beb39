"""Monostatic simulator tests: probe generation, scene application, ground truth."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oran_isac.harness import default_beam_table, default_waveform
from oran_isac.ofh import BeamTable, SensingMetadata, WaveformConfig, encode_metadata
from oran_isac.radio import (
    SPEED_OF_LIGHT,
    DelayExceedsBurst,
    EchoScene,
    RadioUnit,
    Target,
    apply_scene,
    beam_gain,
    check_targets_fit,
    SceneParseError,
    generate_probe,
    scene_echo,
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

    def test_a_target_exactly_one_burst_away_is_refused(self):
        cfg = default_waveform()
        edge = cfg.burst_duration * SPEED_OF_LIGHT / 2.0
        assert Target(edge).delay_s == cfg.burst_duration
        below = math.nextafter(edge, 0.0)
        assert Target(below).delay_s < cfg.burst_duration
        _, probe = generate_probe(cfg)
        with pytest.raises(DelayExceedsBurst, match=f"target at {edge} m"):
            check_targets_fit((Target(below), Target(edge)), cfg)
        with pytest.raises(DelayExceedsBurst):
            scene_echo(probe, cfg, EchoScene(targets=(Target(edge),)), 0, BEAMS)
        echo = scene_echo(probe, cfg, EchoScene(targets=(Target(below),)), 0, BEAMS)
        assert echo.truth.delays_s == (Target(below).delay_s,)

    def test_a_target_at_range_zero_is_accepted(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        _, truth = apply_scene(probe, cfg, EchoScene(targets=(Target(0.0),)), 0, BEAMS)
        assert truth.delays_s == (0.0,)
        with pytest.raises(ValueError):
            Target(-1e-9)

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

    def test_every_beam_and_sic_state_of_a_radio_unit_is_the_bytes_of_a_fresh_scene(self):
        """Each beam and SIC state's burst from one RU, which keeps an echo per key,
        is ``apply_scene``'s bytes. The second target, at 37 degrees, sits between beams.
        """
        cfg = default_waveform()
        _, probe = generate_probe(cfg)
        beams = default_beam_table()
        scene = EchoScene(targets=(Target(45.0, 10.0, 0.0), Target(72.0, -5.0, 37.0, 0.5)),
                          snr_db=20.0, residual_si_power_db=-20.0, seed=5)
        ru = RadioUnit(scene, beams)
        visits = [(beam, sic) for sic in (True, False) for beam in beams.entries]
        for k, (beam, sic) in enumerate(visits):
            fresh = replace(scene, seed=scene.seed + k,
                            residual_si_power_db=-20.0 if sic else 0.0)
            block, _ = apply_scene(probe, cfg, fresh, beam, beams)
            assert burst(ru, cfg, probe, k, beam, sic) == (
                encode_metadata(block.metadata) + block.samples.tobytes())


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
    '{"targets": [{"range_m": 10.0, "velocty_mps": 3.0}]}',
    '{"targets": [{"range_m": NaN}]}',
    '{"targets": [{"range_m": 10.0, "amplitude": "1"}]}',
    '{"seed": -1}',
])
def test_load_scene_malformed(tmp_path, text):
    path = tmp_path / "scene.json"
    path.write_text(text)
    with pytest.raises(SceneParseError):
        load_scene(path)


def test_scene_seed_error_names_the_field():
    with pytest.raises(SceneParseError, match="scene field 'seed': expected a JSON integer"):
        scene_from_dict({"seed": 3.9})


# -- the noise helper ----------------------------------------------------------

HELPER_SCENE = EchoScene(targets=(Target(20.0, 4.0, 0.0), Target(35.0, -2.0, 30.0, 0.5)),
                         snr_db=15.0, residual_si_power_db=-25.0, seed=21)


def helped_ru(cfg, scene=HELPER_SCENE):
    """A RadioUnit with a started helper, or a skip where the process has no spare CPU."""
    ru = RadioUnit(scene, BEAMS)
    ru.start([cfg])
    helper = ru.helper
    if helper is None:
        pytest.skip("no spare CPU or no shared memory file for a helper")
    return ru, helper


def await_ready(helper):
    """Wait for the helper's answer to a throwaway request: numpy is imported."""
    deadline = time.monotonic() + 10.0
    helper.request(0, 0)
    while (answer := helper.take(0, 0)) is None and time.monotonic() < deadline:
        time.sleep(0.005)
    assert answer is not None


def burst(ru, cfg, probe, index, beam=0, sic=True, waveform_id=0):
    header, samples = ru.burst(probe, cfg, SensingMetadata(waveform_id=waveform_id,
                                                           beam_index=beam, sensing_flag=True),
                               sic, index)
    return header + samples.tobytes()


class TestNoiseHelper:
    """A burst is the same bytes whether its noise was drawn by the helper or on the DU."""

    def test_helped_bursts_match_local_ones_across_a_beam_switch_and_sic_off(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        plain = RadioUnit(HELPER_SCENE, BEAMS)
        ru, helper = helped_ru(cfg)
        try:
            await_ready(helper)
            for k in range(60):
                beam, sic = (0, True) if k < 20 else (1, True) if k < 40 else (1, False)
                assert burst(ru, cfg, probe, k, beam, sic) == burst(plain, cfg, probe, k,
                                                                    beam, sic)
                time.sleep(0.002)  # the DU's DSP would run here
        finally:
            helper.close()
        assert plain.local_draws == 60
        # The first burst after "ready" has nothing asked for yet; a loaded
        # host may make a few more draws late.
        assert 1 <= ru.local_draws <= 30

    def test_misses_draw_the_same_bytes_and_are_counted(self):
        cfg, other = make_cfg(), make_cfg(num_symbols=8)
        _, probe = generate_probe(cfg)
        _, other_probe = generate_probe(other)
        plain = RadioUnit(HELPER_SCENE, BEAMS)
        ru, helper = helped_ru(other)
        try:
            # The first burst: nothing has been asked for yet.
            assert burst(ru, cfg, probe, 0) == burst(plain, cfg, probe, 0)
            assert ru.local_draws == 1
            await_ready(helper)
            for k in range(1, 6):
                assert burst(ru, cfg, probe, k) == burst(plain, cfg, probe, k)
                time.sleep(0.01)
            hits = 6 - ru.local_draws
            assert hits >= 1
            # Another waveform and length: the draw asked for is of the old one.
            before = ru.local_draws
            assert burst(ru, other, other_probe, 6, waveform_id=1) == burst(
                plain, other, other_probe, 6, waveform_id=1)
            assert ru.local_draws == before + 1
            # A helper killed mid-run: every later draw is local.
            helper._proc.kill()
            helper._proc.wait()
            before = ru.local_draws
            for k in range(7, 12):
                assert burst(ru, cfg, probe, k) == burst(plain, cfg, probe, k)
            assert ru.local_draws == before + 5
        finally:
            helper.close()

    def test_a_seed_the_generator_refuses_is_never_sent(self):
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        ru, helper = helped_ru(cfg, replace(HELPER_SCENE, seed=-3))
        try:
            await_ready(helper)
            for k in range(3):
                with pytest.raises(ValueError):  # from the DU's own draw
                    burst(ru, cfg, probe, k)
            time.sleep(0.05)
            # Burst 2 asked for seed 0, the first one the helper may draw.
            plain = RadioUnit(replace(HELPER_SCENE, seed=-3), BEAMS)
            assert burst(ru, cfg, probe, 3) == burst(plain, cfg, probe, 3)
        finally:
            helper.close()
        assert ru.local_draws == 3

    def test_close_reaps_the_helper(self):
        ru, helper = helped_ru(make_cfg())
        helper.close()
        assert helper._proc.returncode is not None
        assert helper.take(0, 0) is None

    def test_the_ru_closes_quietly_unstarted_and_twice(self):
        RadioUnit(HELPER_SCENE, BEAMS).close()
        ru, helper = helped_ru(make_cfg())
        ru.close()
        ru.close()
        assert helper._proc.returncode is not None
