"""Benchmark of the oran-isac sensing loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {loop-tcp,stream-inproc}
                             --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout; nothing else is built.
With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation: set-up time, taken cold in fresh processes, then one window
of ``--seconds``. With ``--trace 1`` it measures the middle half of the window
traced and the quarters before and after it untraced, and reports the
per-layer metrics plus the tracing overhead.

Earlier lines of standard output list every metric with its unit and sample
count; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the machine
record and diagnostics, goes to ``perfbench/out/``. The exit code is 1 when a
correctness gate fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SRC = ROOT / "src"

# The program must come from this checkout, never from an installed copy.
if not (SRC / "oran_isac" / "__init__.py").is_file():
    print(f"perfbench: no program sources at {SRC / 'oran_isac'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import pctl  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Cold set-ups per run, each in a fresh process; setup_s is their median.
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "os": f"{platform.system()} {platform.release()} {platform.machine()}",
        "transport": "TCP runs over host loopback (127.0.0.1), not a real link",
        "sandbox": "shared host with other tenants; no CPU pinning; no whole-machine "
                   "tracing, only spans around calls made from this process",
    }


def cold_setups(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_REPS fresh processes, run one after another."""
    times = []
    for rep in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed + rep)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _ms(sorted_ns: list[int], p: str) -> float:
    """Percentile in ms; 0 when a failed run left no samples."""
    return pctl.percentile(sorted_ns, p) / 1e6 if sorted_ns else 0.0


def end_to_end(win, setups: list[float]) -> dict:
    """name -> (value, unit, sample count)."""
    report = sorted(win.report_ns)
    cycle = sorted(win.cycle_ns)
    n = len(report)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "reports_per_s": (win.reports / win.elapsed_s, "1/s", win.reports),
        "report_ms_p50": (_ms(report, "50"), "ms", n),
        "report_ms_p90": (_ms(report, "90"), "ms", n),
        "cycle_ms_p50": (_ms(cycle, "50"), "ms", n),
        "ok_frac": (1.0 - win.failed / win.attempted, "frac", win.attempted),
    }


def tails(win) -> dict:
    """Ungated tail percentiles, and the highest one with enough samples beyond it, in ms."""
    out = {}
    for name, values in (("report", win.report_ns), ("cycle", win.cycle_ns)):
        s = pctl.summarize(values)
        ms = {key: s[key] / 1e6 if key in s else 0.0 for key in ("p90", "p95", "p99")}
        out[name] = {"n": s["n"], "p90_ms": ms["p90"], "p95_ms": ms["p95"],
                     "p99_ms": ms["p99"], "tail_level": s.get("tail_level"),
                     "tail_ms": s["tail"] / 1e6 if "tail" in s else None}
    return out


def per_layer(untraced: list, traced, tracer) -> tuple[dict, dict]:
    """name -> (value, unit, None), and the per-layer diagnostics."""
    metrics, diag = spans.layer_metrics(tracer, traced.start_ns, traced.end_ns,
                                        traced.latency_by_req)
    tail = tails(traced)
    base_p50 = _ms(sorted(ns for w in untraced for ns in w.cycle_ns), "50")
    traced_p50 = _ms(sorted(traced.cycle_ns), "50")
    metrics.update({
        "dapp.dropped_blocks": (traced.counters["dapp.dropped_blocks"], "count"),
        "transport.drops": (traced.counters["transport.drops"], "count"),
        "control.timeouts": (traced.counters["control.timeouts"], "count"),
        "harness.setup.first_report_ms": (traced.setup_ns / 1e6, "ms"),
        "harness.report_ms_p99": (tail["report"]["p99_ms"], "ms"),
        "harness.cycle_ms_p99": (tail["cycle"]["p99_ms"], "ms"),
        "harness.samples": (tail["cycle"]["n"], "count"),
        "trace.overhead_frac": (traced_p50 / base_p50 - 1.0 if base_p50 else 0.0, "frac"),
    })
    diag["untraced_cycle_ms_p50"] = base_p50
    diag["traced_cycle_ms_p50"] = traced_p50
    diag["traced_tails"] = tail
    return {k: (v, unit, None) for k, (v, unit) in metrics.items()}, diag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.RUNNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_probe:
        print(repr(workloads.setup_s(args.workload, args.seed)))
        return 0

    started = time.time()
    run = workloads.RUNNERS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.trace == 0:
        setups = cold_setups(args.workload, args.seed)
        win = run(args.seed, args.seconds)
        windows = [win]
        metrics = end_to_end(win, setups)
        result["setup_s_samples"] = setups
        result["tails"] = tails(win)
    else:
        # Untraced quarters before and after the traced half, so that a drift
        # in machine speed during the run cancels out of the overhead.
        before = run(args.seed, args.seconds / 4)
        tracer = spans.Tracer()
        with spans.Instrumentation(tracer):
            win = run(args.seed, args.seconds / 2, tracer)
        after = run(args.seed, args.seconds / 4)
        windows = [before, win, after]
        metrics, result["diagnostics"] = per_layer([before, after], win, tracer)
        tracer.write_csv(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.csv")

    breaches = [b for w in windows for b in w.breaches]
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    result.update({
        "counters": win.counters, "notes": win.notes, "breaches": breaches[:20],
        "attempted": attempted, "failed": failed, "wall_s": time.time() - started,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    })
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=2) + "\n")

    m = result["machine"]
    print(f"# machine: {m['nproc']} CPUs ({m['usable_cpus']} usable), {m['cpu_model']}, "
          f"Python {m['python']}, numpy {m['numpy']}; {m['transport']}; {m['sandbox']}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} attempted, {failed} failed; result in {out_file.relative_to(ROOT)}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + ("" if n is None else f"  (n={n})"))
    for name, t in result.get("tails", {}).items():
        print(f"# {name} tail, not gated: p90 {t['p90_ms']:.6g} ms, p95 {t['p95_ms']:.6g} ms, "
              f"p99 {t['p99_ms']:.6g} ms; "
              f"highest level with 10 samples beyond it: p{t['tail_level']} = "
              f"{t['tail_ms']} ms (n={t['n']})")
    for key, value in win.notes.items():
        print(f"# {key}: {value}")
    for b in breaches[:20]:
        print(f"# GATE FAILED: {b}")
    correct = not breaches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
