"""Synthetic monostatic radio environment.

Generates the OFDM probing burst for a waveform configuration, then applies a
target scene to it in two steps. ``scene_echo`` builds the noise-free burst
seen on one beam: per-target round-trip delay (fractional, frequency-domain),
two-way Doppler rotation, beam-pattern gain and residual self-interference as
an attenuated zero-delay copy. It depends on the probe, the scene's targets
and SI level and the beam, never on the scene's seed, so a caller that senses
the same scene burst after burst can keep it (the dApp keys it on waveform,
beam and SIC state). ``apply_scene`` adds white Gaussian noise, calibrated to
the strongest echo and drawn from the scene's seed, to that echo. Ground
truth rides along with every block so estimators can be verified against
exact values.

Conventions fixed here and relied on by the estimator:
  delay   = 2 * range / c
  doppler = 2 * radial_velocity * carrier_frequency / c   (receding => positive)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ofh import BeamTable, IqBlock, SensingMetadata, WaveformConfig

SPEED_OF_LIGHT = 299_792_458.0

# Beam pattern: Gaussian mainlobe over azimuth offset with a sidelobe floor.
BEAMWIDTH_DEG = 10.0
SIDELOBE_FLOOR_DB = -30.0


class RadioSimError(Exception):
    pass


class DelayExceedsBurst(RadioSimError):
    """A target's round-trip delay does not fit inside the probing burst."""


class SceneParseError(Exception):
    """A scene document is not valid JSON or has a malformed field."""


def json_int(value) -> int:
    """A count or seed from a JSON document: a JSON integer, not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Target:
    range_m: float                # >= 0
    radial_velocity_mps: float    # positive = receding
    azimuth_deg: float
    amplitude: float = 1.0        # linear power gain

    def __post_init__(self) -> None:
        if self.range_m < 0:
            raise ValueError("range must be non-negative")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")

    @property
    def delay_s(self) -> float:
        return 2.0 * self.range_m / SPEED_OF_LIGHT

    def doppler_hz(self, carrier_frequency: float) -> float:
        return 2.0 * self.radial_velocity_mps * carrier_frequency / SPEED_OF_LIGHT


@dataclass(frozen=True)
class EchoScene:
    """Ground-truth scene driving the simulator.

    snr_db = math.inf disables noise; residual_si_power_db = -math.inf
    disables the self-interference component. SNR is defined against the
    strongest single-target echo (or the unit-power probe when the scene is
    empty).
    """

    targets: tuple[Target, ...] = ()
    snr_db: float = math.inf
    residual_si_power_db: float = -math.inf
    seed: int = 0


@dataclass(frozen=True)
class GroundTruth:
    delays_s: tuple[float, ...]
    dopplers_hz: tuple[float, ...]
    beam_gains: tuple[float, ...]     # linear power gains actually applied


def beam_gain(target_azimuth_deg: float, beam_azimuth_deg: float) -> float:
    """Linear power gain of the probing beam toward an azimuth offset."""
    delta = abs(target_azimuth_deg - beam_azimuth_deg)
    delta = min(delta, 360.0 - delta)
    sigma = BEAMWIDTH_DEG / 2.0
    gain = math.exp(-((delta / sigma) ** 2))
    return max(gain, 10.0 ** (SIDELOBE_FLOOR_DB / 10.0))


def generate_probe(cfg: WaveformConfig, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Build the probing burst: (symbol grid, CP-extended time-domain samples).

    Pilot symbols are unit-magnitude QPSK drawn deterministically from
    (pilot_pattern, seed). The time-domain burst is normalized to unit
    average power.
    """
    pattern_seed = np.random.SeedSequence(
        [seed, int.from_bytes(cfg.pilot_pattern.encode(), "big") % 2**63]
    )
    rng = np.random.default_rng(pattern_seed)
    phases = rng.integers(0, 4, size=(cfg.num_symbols, cfg.fft_size))
    grid = np.exp(1j * (np.pi / 2.0) * phases + 1j * np.pi / 4.0)

    # ifft carries a 1/N factor; sqrt(N) restores unit average power for a
    # unit-magnitude frequency grid.
    time_syms = np.fft.ifft(grid, axis=1) * math.sqrt(cfg.fft_size)
    if cfg.cp_length:
        time_syms = np.concatenate([time_syms[:, -cfg.cp_length:], time_syms], axis=1)
    return grid, time_syms.reshape(-1)


def _fractional_delay(signal: np.ndarray, delay_samples: float) -> np.ndarray:
    """Circular delay over the whole burst via a frequency-domain phase ramp."""
    n = len(signal)
    freqs = np.fft.fftfreq(n)
    return np.fft.ifft(np.fft.fft(signal) * np.exp(-2j * np.pi * freqs * delay_samples))


@dataclass(frozen=True)
class SceneEcho:
    """Noise-free burst for one (probe, scene targets and SI, beam)."""

    samples: np.ndarray       # target echoes plus residual SI copy; read-only
    ref_power: float          # strongest single-target echo power, 1.0 if none
    truth: GroundTruth


def scene_echo(probe: np.ndarray, cfg: WaveformConfig, scene: EchoScene,
               beam: int, beam_table: BeamTable) -> SceneEcho:
    """Propagate the probe through the scene's targets on one beam, without noise."""
    fs = cfg.sample_rate
    beam_az, _ = beam_table.direction(beam)

    delays, dopplers, gains = [], [], []
    rx = np.zeros_like(probe)
    n = np.arange(len(probe))
    echo_powers = []
    for t in scene.targets:
        delay = t.delay_s
        if delay >= cfg.burst_duration:
            raise DelayExceedsBurst(
                f"target at {t.range_m} m: delay {delay:.3e} s >= burst "
                f"{cfg.burst_duration:.3e} s"
            )
        doppler = t.doppler_hz(cfg.carrier_frequency)
        gain = beam_gain(t.azimuth_deg, beam_az)
        power = t.amplitude * gain
        echo = _fractional_delay(probe, delay * fs)
        echo = echo * np.exp(2j * np.pi * doppler * n / fs)
        rx = rx + math.sqrt(power) * echo
        delays.append(delay)
        dopplers.append(doppler)
        gains.append(gain)
        echo_powers.append(power)

    ref_power = max(echo_powers) if echo_powers else 1.0

    if scene.residual_si_power_db > -math.inf:
        si_amp = math.sqrt(ref_power * 10.0 ** (scene.residual_si_power_db / 10.0))
        rx = rx + si_amp * probe

    # Shared by every burst built on it: nobody may write to it.
    rx.flags.writeable = False
    return SceneEcho(rx, ref_power, GroundTruth(tuple(delays), tuple(dopplers), tuple(gains)))


def apply_scene(probe: np.ndarray, cfg: WaveformConfig, scene: EchoScene,
                beam: int, beam_table: BeamTable, *,
                echo: SceneEcho | None = None,
                waveform_id: int = 0, tx_timestamp: int = 0) -> tuple[IqBlock, GroundTruth]:
    """Propagate the probe through the scene as seen on one probing beam.

    ``echo`` is a ``scene_echo`` result for the same probe, cfg, scene targets,
    SI level and beam; given, only the noise of ``scene.seed`` is drawn.
    """
    if echo is None:
        echo = scene_echo(probe, cfg, scene, beam, beam_table)
    rx = echo.samples
    if scene.snr_db < math.inf:
        rng = np.random.default_rng(scene.seed)
        noise_power = echo.ref_power / 10.0 ** (scene.snr_db / 10.0)
        # One draw: first half real parts, second half imaginary parts.
        draw = rng.standard_normal(2 * len(rx))
        noise = draw[:len(rx)] + 1j * draw[len(rx):]
        rx = rx + noise * math.sqrt(noise_power / 2.0)

    meta = SensingMetadata(
        tx_timestamp=tx_timestamp,
        waveform_id=waveform_id,
        beam_index=beam,
        sensing_flag=True,
    )
    block = IqBlock(metadata=meta, samples=rx)
    return block, echo.truth


def scene_from_dict(doc: dict) -> EchoScene:
    """Build a scene from its parsed JSON document.

    A missing ``snr_db`` means no noise, a missing ``residual_si_power_db``
    means no self-interference. Any malformed field raises ``SceneParseError``.
    """
    if not isinstance(doc, dict):
        raise SceneParseError(f"scene: expected a JSON object, got {type(doc).__name__}")
    try:
        seed = json_int(doc.get("seed", 0))
    except TypeError as e:
        raise SceneParseError(f"scene field 'seed': {e}") from e
    try:
        targets = tuple(
            Target(
                range_m=float(t["range_m"]),
                radial_velocity_mps=float(t.get("radial_velocity_mps", 0.0)),
                azimuth_deg=float(t.get("azimuth_deg", 0.0)),
                amplitude=float(t.get("amplitude", 1.0)),
            )
            for t in doc.get("targets", [])
        )
        snr = doc.get("snr_db")
        si = doc.get("residual_si_power_db")
        return EchoScene(
            targets=targets,
            snr_db=math.inf if snr is None else float(snr),
            residual_si_power_db=-math.inf if si is None else float(si),
            seed=seed,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise SceneParseError(str(e)) from e


def load_scene(path: str | Path) -> EchoScene:
    """Read a scene description from a JSON document."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise SceneParseError(str(e)) from e
    return scene_from_dict(doc)
