"""Closed-loop control demo: subscribe, walk the period, and measure the loop.

Brings up the full stack (simulator, sensing dApp, transport, control xApp),
subscribes to periodic reports, walks the reporting period down the schedule
100 -> 20 -> 10 ms, and decomposes the closed-loop latency of paired
telemetry and control probes.
"""

from oran_isac.clock import SharedClock
from oran_isac.control import XApp, load_policy
from oran_isac.dapp import DappConfig, SensingDapp
from oran_isac.e2sm import SubscriptionMode
from oran_isac.harness import default_beam_table, default_waveform
from oran_isac.radio import EchoScene, Target
from oran_isac.stats import compliance_table, percentile
from oran_isac.transport import channel_pair


def main() -> None:
    clock = SharedClock()
    scene = EchoScene(targets=(Target(45.0, 10.0, 0.0),), snr_db=20.0,
                      residual_si_power_db=-20.0)
    dapp_end, xapp_end = channel_pair()
    dapp = SensingDapp(DappConfig(report_period_ms=100.0),
                       {0: default_waveform()}, default_beam_table(),
                       scene, dapp_end, clock)
    policy = load_policy("configs/policy.json")
    xapp = XApp(xapp_end, policy=policy, clock=clock)
    dapp.start()
    xapp.start()
    try:
        sid = xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=100.0)
        print(f"subscription {sid} active under policy '{policy.policy_id}'")

        for period in (20.0, 10.0):
            sample = xapp.set_period(period)
            print(f"period -> {period:.0f} ms "
                  f"(control latency {sample.control_latency_ns / 1e6:.2f} ms)")

        print("\nrunning 300 closed-loop probes at 10 ms ...")
        for _ in range(300):
            xapp.closed_loop_probe()

        telemetry = [s.telemetry_latency_ns / 1e6 for s in xapp.samples]
        control = [s.control_latency_ns / 1e6 for s in xapp.samples]
        closed = [s.closed_loop_ns / 1e6 for s in xapp.samples]
        print(f"telemetry  p50 {percentile(telemetry, 50):6.2f} ms  "
              f"p95 {percentile(telemetry, 95):6.2f} ms")
        print(f"control    p50 {percentile(control, 50):6.2f} ms  "
              f"p95 {percentile(control, 95):6.2f} ms")
        print(f"closed     p50 {percentile(closed, 50):6.2f} ms  "
              f"p95 {percentile(closed, 95):6.2f} ms")
        print("\nuse-case compliance (fraction of loops under budget):")
        for name, frac in compliance_table(closed).items():
            print(f"  {name:22s} {frac:6.1%}")
    finally:
        xapp.stop()
        dapp.stop()


if __name__ == "__main__":
    main()
