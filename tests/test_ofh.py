"""Fronthaul metadata codec, waveform table, and capacity model tests."""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from oran_isac.ofh import (
    BeamTable,
    NonZeroPadding,
    SensingMetadata,
    UnknownWaveformId,
    WaveformConfig,
    WaveformParseError,
    WrongLength,
    decode_metadata,
    encode_metadata,
    fronthaul_rate,
    lookup_waveform,
    waveform_from_dict,
)

VECTORS = Path(__file__).resolve().parent.parent / "conformance" / "ofh_metadata_vectors.txt"


def bitpack_reference(m: SensingMetadata) -> bytes:
    """Independent bit-level packer: assemble the 96-bit word field by field."""
    word = 0
    word |= (1 if m.sensing_flag else 0) << 95
    # bits 94..88 are padding, left zero
    word |= m.beam_index << 80
    word |= m.waveform_id << 64
    word |= m.tx_timestamp
    return word.to_bytes(12, "big")


metadata_values = st.builds(
    SensingMetadata,
    tx_timestamp=st.integers(0, 2**64 - 1),
    waveform_id=st.integers(0, 2**16 - 1),
    beam_index=st.integers(0, 255),
    sensing_flag=st.booleans(),
)


class TestEncode:
    def test_all_zero(self):
        assert encode_metadata(SensingMetadata()) == bytes(12)

    def test_flag_only(self):
        m = SensingMetadata(sensing_flag=True)
        assert encode_metadata(m) == b"\x80" + bytes(11)

    def test_hand_packed(self):
        m = SensingMetadata(tx_timestamp=1, waveform_id=0x0102, beam_index=7)
        assert encode_metadata(m) == bytes.fromhex("000701020000000000000001")

    @given(metadata_values)
    def test_matches_bit_level_reference(self, m):
        assert encode_metadata(m) == bitpack_reference(m)

    @given(metadata_values)
    def test_length_always_12(self, m):
        assert len(encode_metadata(m)) == 12


class TestDecode:
    def test_all_zero(self):
        assert decode_metadata(bytes(12)) == SensingMetadata()

    @given(metadata_values)
    def test_round_trip(self, m):
        assert decode_metadata(encode_metadata(m)) == m

    @pytest.mark.parametrize("n", [0, 1, 11, 13, 24])
    def test_wrong_length(self, n):
        with pytest.raises(WrongLength):
            decode_metadata(bytes(n))

    @pytest.mark.parametrize("flags", [0x01, 0x7F, 0x40, 0x81])
    def test_nonzero_padding(self, flags):
        with pytest.raises(NonZeroPadding):
            decode_metadata(bytes([flags]) + bytes(11))


def test_golden_vectors():
    lines = VECTORS.read_text().strip().splitlines()
    assert len(lines) >= 8
    for line in lines:
        hexpart, rest = line.split(" ", 1)
        fields = dict(kv.split("=") for kv in rest.split())
        frame = bytes.fromhex(hexpart)
        expected = SensingMetadata(
            tx_timestamp=int(fields["ts"]),
            waveform_id=int(fields["wf"]),
            beam_index=int(fields["beam"]),
            sensing_flag=bool(int(fields["flag"])),
        )
        assert decode_metadata(frame) == expected
        assert encode_metadata(expected) == frame


def make_cfg(**kw):
    defaults = dict(fft_size=64, cp_length=16, subcarrier_spacing=15e3,
                    pilot_pattern="p", carrier_frequency=3.5e9,
                    bandwidth=64 * 15e3, num_symbols=4)
    defaults.update(kw)
    return WaveformConfig(**defaults)


class TestWaveformConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_cfg(fft_size=48)

    def test_rejects_excess_bandwidth(self):
        with pytest.raises(ValueError):
            make_cfg(bandwidth=65 * 15e3)

    def test_rejects_zero_symbols(self):
        with pytest.raises(ValueError):
            make_cfg(num_symbols=0)

    def test_derived_quantities(self):
        cfg = make_cfg()
        assert cfg.sample_rate == 64 * 15e3
        assert cfg.samples_per_burst == 4 * 80


class TestLookup:
    def test_hit(self):
        cfg = make_cfg()
        assert lookup_waveform({5: cfg}, 5) is cfg

    def test_miss(self):
        with pytest.raises(UnknownWaveformId):
            lookup_waveform({5: make_cfg()}, 6)

    def test_empty_table(self):
        with pytest.raises(UnknownWaveformId):
            lookup_waveform({}, 0)


WAVEFORM_DOC = {"fft_size": 256, "cp_length": 64, "subcarrier_spacing": 390625.0,
                "carrier_frequency": 3.5e9, "bandwidth": 1e8, "num_symbols": 16}


@pytest.mark.parametrize("doc, match", [
    ({**WAVEFORM_DOC, "fft_size": "x"}, "waveform field 'fft_size'"),
    ({**WAVEFORM_DOC, "num_symbols": None}, "waveform field 'num_symbols'"),
    ({k: v for k, v in WAVEFORM_DOC.items() if k != "cp_length"},
     "waveform: missing field 'cp_length'"),
    ({**WAVEFORM_DOC, "fft_size": 100}, "waveform: fft_size must be a power of two"),
    ([1], "waveform: expected a JSON object"),
    ({**WAVEFORM_DOC, "fft_sise": 256}, "waveform field 'fft_sise'"),
    ({**WAVEFORM_DOC, "fft_size": 256.7}, "waveform field 'fft_size'"),
    ({**WAVEFORM_DOC, "fft_size": "64"}, "waveform field 'fft_size'"),
], ids=["not-a-number", "null", "missing", "invalid", "not-an-object", "stray-key",
        "float-count", "string-count"])
def test_malformed_waveform_document_is_named(doc, match):
    with pytest.raises(WaveformParseError, match=match):
        waveform_from_dict(doc)


class TestFronthaulRate:
    def test_massive_mimo_raw(self):
        # 64 antennas, 100 MHz, 16-bit components: the order-of-200-Gbps case.
        assert fronthaul_rate(64, 100e6, 16) == pytest.approx(204.8e9)

    def test_unit(self):
        assert fronthaul_rate(1, 1, 1) == 2

    def test_beam_domain_reduction(self):
        assert fronthaul_rate(8, 100e6, 16) == pytest.approx(25.6e9)
        assert fronthaul_rate(64, 100e6, 16) / fronthaul_rate(8, 100e6, 16) == 8

    @given(st.integers(1, 1024), st.floats(1.0, 1e9), st.integers(1, 64))
    def test_linear_in_stream_count(self, a, b, w):
        assert fronthaul_rate(2 * a, b, w) == pytest.approx(2 * fronthaul_rate(a, b, w))

    @pytest.mark.parametrize("args", [(0, 1e6, 16), (8, 0, 16), (8, 1e6, 0)])
    def test_rejects_non_positive(self, args):
        with pytest.raises(ValueError):
            fronthaul_rate(*args)


class TestBeamTable:
    def test_valid(self):
        t = BeamTable({0: (0.0, 0.0), 255: (-180.0, 90.0)})
        assert t.direction(255) == (-180.0, 90.0)
        assert 0 in t and 7 not in t

    @pytest.mark.parametrize("entries", [
        {256: (0.0, 0.0)},
        {0: (181.0, 0.0)},
        {0: (0.0, 91.0)},
    ])
    def test_invalid(self, entries):
        with pytest.raises(ValueError):
            BeamTable(entries)
