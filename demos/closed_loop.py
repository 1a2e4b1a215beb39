"""Closed-loop control demo: walk the reporting period, then measure the loop.

Runs the harness's two live experiments under the A1 policy in
configs/policy.json: the period schedule 100 -> 20 -> 10 ms, one second a
segment, then 300 paired telemetry and control probes at 10 ms.
"""

from oran_isac.control import load_policy
from oran_isac.harness import ExperimentConfig, run_experiment_a, run_experiment_b


def main() -> None:
    cfg = ExperimentConfig(schedule_ms=(100.0, 20.0, 10.0), segment_duration_s=1.0,
                           probe_period_ms=10.0, num_probes=300,
                           policy=load_policy("configs/policy.json"))
    print(f"period schedule under policy '{cfg.policy.policy_id}':")
    for seg in run_experiment_a(cfg).segments:
        print(f"  target {seg.target_ms:5.0f} ms  mean {seg.mean_ms:6.2f} ms  "
              f"p95 jitter {seg.p95_jitter_ms:5.2f} ms  ({seg.count} intervals)")

    print(f"\nrunning {cfg.num_probes} closed-loop probes at {cfg.probe_period_ms:.0f} ms ...")
    loop = run_experiment_b(cfg)
    for name, pct in (("telemetry", loop.telemetry_ms), ("control", loop.control_ms),
                      ("closed", loop.closed_loop_ms)):
        print(f"{name:10s} p50 {pct['p50']:6.2f} ms  p95 {pct['p95']:6.2f} ms")
    print("\nuse-case compliance (fraction of loops under budget):")
    for name, frac in loop.compliance.items():
        print(f"  {name:22s} {frac:6.1%}")


if __name__ == "__main__":
    main()
