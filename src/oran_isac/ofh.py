"""Open-Fronthaul sensing extensions: metadata codec, waveform table, capacity model.

Each uplink IQ block destined for sensing carries a 12-byte metadata prefix
that lets the DU correlate the echo with the downlink waveform that produced
it: transmission timestamp (round-trip delay), waveform ID (index into the
processing-parameter table), beam index (angle lookup), and a sensing flag.

Wire layout, big-endian, 12 bytes total (89 payload bits + 7 zero padding):

    byte 0      flags: bit 7 = sensing flag, bits 6..0 = zero padding
    byte 1      beam index
    bytes 2-3   waveform ID
    bytes 4-11  TX timestamp, nanoseconds since epoch
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .schema import json_float, json_int, json_str, read_document

METADATA_SIZE = 12

_HEADER = struct.Struct(">BBHQ")


class OfhError(Exception):
    """Base class for fronthaul framing errors."""


class WrongLength(OfhError):
    """Metadata buffer is not exactly 12 bytes."""


class NonZeroPadding(OfhError):
    """Padding bits of the flags byte are set; frame is corrupt or non-conformant."""


class UnknownWaveformId(OfhError):
    """No configuration registered under this waveform ID; the echo cannot be
    coherently processed and the block must be dropped and counted."""


class WaveformParseError(Exception):
    """A waveform document has a missing or malformed field."""


@dataclass(frozen=True)
class SensingMetadata:
    """Per-block sensing header attached to fronthaul IQ transfers."""

    tx_timestamp: int = 0        # ns since epoch, u64
    waveform_id: int = 0         # u16, index into the waveform table
    beam_index: int = 0          # u8
    sensing_flag: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.tx_timestamp < 2**64:
            raise ValueError(f"tx_timestamp out of u64 range: {self.tx_timestamp}")
        if not 0 <= self.waveform_id < 2**16:
            raise ValueError(f"waveform_id out of u16 range: {self.waveform_id}")
        if not 0 <= self.beam_index < 2**8:
            raise ValueError(f"beam_index out of u8 range: {self.beam_index}")


def encode_metadata(m: SensingMetadata) -> bytes:
    """Pack metadata into its fixed 12-byte wire form."""
    flags = 0x80 if m.sensing_flag else 0x00
    return _HEADER.pack(flags, m.beam_index, m.waveform_id, m.tx_timestamp)


def decode_metadata(buf: bytes) -> SensingMetadata:
    """Exact inverse of :func:`encode_metadata`; strict about length and padding."""
    if len(buf) != METADATA_SIZE:
        raise WrongLength(f"expected {METADATA_SIZE} bytes, got {len(buf)}")
    flags, beam, wf, ts = _HEADER.unpack(buf)
    if flags & 0x7F:
        raise NonZeroPadding(f"padding bits set in flags byte 0x{flags:02x}")
    return SensingMetadata(
        tx_timestamp=ts,
        waveform_id=wf,
        beam_index=beam,
        sensing_flag=bool(flags & 0x80),
    )


@dataclass(frozen=True)
class WaveformConfig:
    """Processing parameters referenced by a waveform ID.

    Sample rate is fft_size * subcarrier_spacing; all delay/Doppler bin
    arithmetic downstream derives from these fields.
    """

    fft_size: int
    cp_length: int
    subcarrier_spacing: float     # Hz
    pilot_pattern: str
    carrier_frequency: float      # Hz
    bandwidth: float              # Hz
    num_symbols: int

    def __post_init__(self) -> None:
        if self.fft_size <= 0 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.cp_length < 0:
            raise ValueError("cp_length must be non-negative")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be >= 1")
        if self.bandwidth > self.fft_size * self.subcarrier_spacing + 1e-6:
            raise ValueError("bandwidth exceeds fft_size * subcarrier_spacing")

    @property
    def sample_rate(self) -> float:
        return self.fft_size * self.subcarrier_spacing

    @property
    def symbol_duration(self) -> float:
        """Duration of one CP-extended symbol, seconds."""
        return (self.fft_size + self.cp_length) / self.sample_rate

    @property
    def burst_duration(self) -> float:
        return self.num_symbols * self.symbol_duration

    @property
    def samples_per_burst(self) -> int:
        return self.num_symbols * (self.fft_size + self.cp_length)


def lookup_waveform(table: dict[int, WaveformConfig], waveform_id: int) -> WaveformConfig:
    """Resolve a waveform ID; unknown IDs mean the block must be dropped."""
    try:
        return table[waveform_id]
    except KeyError:
        raise UnknownWaveformId(f"waveform id {waveform_id} not registered") from None


_WAVEFORM_FIELDS = {
    "fft_size": json_int,
    "cp_length": json_int,
    "subcarrier_spacing": json_float,
    "pilot_pattern": json_str,
    "carrier_frequency": json_float,
    "bandwidth": json_float,
    "num_symbols": json_int,
}


def waveform_from_dict(doc: dict) -> WaveformConfig:
    """Build one waveform configuration from its parsed JSON object.

    Keys: fft_size, cp_length, subcarrier_spacing, carrier_frequency,
    bandwidth, num_symbols and, optionally, pilot_pattern ("qpsk-prs"). A
    missing, malformed or unknown field raises ``WaveformParseError`` naming it.
    """
    return read_document(doc, partial(WaveformConfig, pilot_pattern="qpsk-prs"),
                         _WAVEFORM_FIELDS, WaveformParseError, "waveform",
                         required=[key for key in _WAVEFORM_FIELDS if key != "pilot_pattern"])


@dataclass(frozen=True)
class IqBlock:
    """One fronthaul transfer unit: baseband samples plus sensing metadata."""

    metadata: SensingMetadata
    samples: np.ndarray           # complex128, length = num_symbols * (fft_size + cp)


@dataclass
class BeamTable:
    """Beam index to steering direction (azimuth, elevation) in degrees."""

    entries: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for idx, (az, el) in self.entries.items():
            if not 0 <= idx <= 255:
                raise ValueError(f"beam index {idx} out of [0, 255]")
            if not -180.0 <= az <= 180.0:
                raise ValueError(f"azimuth {az} out of [-180, 180]")
            if not -90.0 <= el <= 90.0:
                raise ValueError(f"elevation {el} out of [-90, 90]")

    def direction(self, beam_index: int) -> tuple[float, float]:
        return self.entries[beam_index]

    def __contains__(self, beam_index: int) -> bool:
        return beam_index in self.entries


def fronthaul_rate(antennas_or_beams: int, bandwidth_hz: float, bits_per_component: int) -> float:
    """Raw fronthaul load in bits/second for complex Nyquist-rate IQ streams.

    Two components (I and Q) per complex sample, sample rate equal to the
    bandwidth, one stream per antenna or beam. No line-coding overhead.
    """
    if antennas_or_beams <= 0 or bandwidth_hz <= 0 or bits_per_component <= 0:
        raise ValueError("all arguments must be positive")
    return bandwidth_hz * 2.0 * bits_per_component * antennas_or_beams
