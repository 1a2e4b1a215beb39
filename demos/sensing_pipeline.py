"""Walk one IQ block through the monostatic sensing pipeline.

Builds a probe waveform and sends it through the simulated RU, which returns
the echo of a two-target scene with its 12-byte Open Fronthaul sensing header.
The decoded header names the waveform and beam the echo belongs to; the
delay-Doppler map and the KPI report are built from them, and the report is
printed next to the header and the scene's targets.
"""

import numpy as np

from oran_isac.clock import SharedClock
from oran_isac.dapp import delay_doppler_map, estimate_kpis
from oran_isac.harness import default_beam_table, default_waveform
from oran_isac.ofh import IqBlock, SensingMetadata, decode_metadata
from oran_isac.radio import EchoScene, RadioUnit, Target, generate_probe


def main() -> None:
    cfg = default_waveform(num_symbols=64)
    beams = default_beam_table()
    scene = EchoScene(
        targets=(
            Target(range_m=45.0, radial_velocity_mps=10.0, azimuth_deg=0.0),
            Target(range_m=72.0, radial_velocity_mps=-4.0, azimuth_deg=15.0,
                   amplitude=0.4),
        ),
        snr_db=20.0,
        residual_si_power_db=-20.0,
    )

    print(f"waveform: {cfg.fft_size}-point FFT, CP {cfg.cp_length}, "
          f"{cfg.num_symbols} symbols at {cfg.sample_rate / 1e6:.0f} Msps")
    print(f"range bin: {299792458 / (2 * cfg.sample_rate):.3f} m\n")

    grid, probe = generate_probe(cfg, seed=0)
    sent = SensingMetadata(SharedClock().now_ns(), waveform_id=0,
                           beam_index=4, sensing_flag=True)  # boresight
    header, samples = RadioUnit(scene, beams).burst(probe, cfg, sent, sic_enabled=True, index=0)
    meta = decode_metadata(header)
    print(f"OFH header {header.hex()}: waveform {meta.waveform_id}, "
          f"beam {meta.beam_index}, tx stamp {meta.tx_timestamp} ns")

    power_map = delay_doppler_map(IqBlock(meta, samples), cfg, grid)
    d_idx, p_idx = np.unravel_index(np.argmax(power_map), power_map.shape)
    print(f"delay-Doppler map: {power_map.shape}, peak at bin ({d_idx}, {p_idx})")

    report = estimate_kpis(power_map, cfg, beams, meta.beam_index,
                           waveform_id=meta.waveform_id)
    for target in scene.targets:
        print(f"truth : {target.range_m:6.2f} m, "
              f"{target.radial_velocity_mps:+6.2f} m/s, az {target.azimuth_deg:+.0f} deg")
    print(f"report: {report.range_m:6.2f} m, "
          f"{report.radial_velocity_mps:+6.2f} m/s, az {report.aoa_azimuth_deg:+.0f} deg, "
          f"beam {report.beam_index}, waveform {report.waveform_id}")
    print(f"        echo energy {report.echo_energy_db:+.1f} dB, "
          f"SI {report.si_power_db:+.1f} dB, confidence {report.confidence:.2f}")
    print(f"        multipath spread {report.multipath_spread_s * 1e9:.1f} ns, "
          f"angular entropy {report.angular_entropy:.3f}")

    doppler_bin = 1.0 / (cfg.num_symbols * cfg.symbol_duration)
    vel_bin = doppler_bin * 299792458 / (2 * cfg.carrier_frequency)
    print(f"\nnote: one Doppler bin spans {vel_bin:.0f} m/s at this burst "
          "length, so the velocity estimate relies entirely on sub-bin "
          "interpolation; longer bursts sharpen it.")


if __name__ == "__main__":
    main()
