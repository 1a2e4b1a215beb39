"""The benchmark's two workloads.

* ``loop-tcp``: closed loop. The main thread calls ``XApp.closed_loop_probe``
  back to back over a TCP-loopback channel pair; periodic subscription at
  5 ms. The DSP runs before t0 is stamped, so codec, transport and the
  control round trip are the blocking steps.
* ``stream-inproc``: open loop. Periodic subscription at 1 ms over the
  in-process channel; the dApp's own timer generates the load and the main
  thread only collects what the xApp received. 1 ms is more than the dApp can
  deliver, so the DU loop, the DSP and the xApp receive thread compete for
  the CPUs.

Every workload returns a ``Window``: the per-report latency (``report_ns``),
the per-cycle latency of its caller (``cycle_ns``), counts of what was
attempted and what failed, and the correctness-gate breaches.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from oran_isac import dapp, e2sm, radio
from oran_isac.clock import SharedClock
from oran_isac.control import A1IsacPolicy, ControlError, RequestTimeout, XApp
# Bound here, at import, so the traced run's wrappers do not time the checks.
from oran_isac.e2sm import E2SensMessage, MsgType, decode_message, encode_message
from oran_isac.harness import default_beam_table, default_waveform
from oran_isac.transport import EndpointKind, TransportError, channel_pair

import pctl
import spans

# Beam 4 of the default table points at 0 deg azimuth, where every on-beam
# target sits.
BEAM = 4
LIVE_TARGET = radio.Target(range_m=45.0, radial_velocity_mps=10.0, azimuth_deg=0.0)
SNR_DB = 20.0
RESIDUAL_SI_DB = -20.0
# The accuracy bar of the estimator acceptance test: 95% of reports within
# 0.75 m (half a 1.5 m range bin) of the true range.
RANGE_TOL_M = 0.75
ACCURACY_BAR = 0.95
# Live stacks run this long before the window opens, so lazy set-up is done.
LIVE_WARMUP_S = 0.5
PROBE_TIMEOUT_S = 1.0
LOOP_PERIOD_MS = 5.0
# The A1 policy's default minimum period.
STREAM_PERIOD_MS = 1.0


@dataclass
class Window:
    start_ns: int = 0
    end_ns: int = 0
    reports: int = 0
    attempted: int = 0
    failed: int = 0
    # Per sample: its report latency and its cycle time.
    report_ns: list[int] = field(default_factory=list)
    cycle_ns: list[int] = field(default_factory=list)
    # Request id -> report latency, for matching against spans.
    latency_by_req: dict[str, int] = field(default_factory=dict)
    breaches: list[str] = field(default_factory=list)
    setup_ns: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def elapsed_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def add(self, report_ns: int, cycle_ns: int) -> None:
        self.report_ns.append(report_ns)
        self.cycle_ns.append(cycle_ns)


@contextlib.contextmanager
def _span(tracer, name: str):
    if tracer is None:
        yield
        return
    span = tracer.begin(name)
    try:
        yield
    finally:
        tracer.end(span)


def _seed32(seed: int) -> int:
    return seed % 2**32


# -- live stack ---------------------------------------------------------------

class LiveStack:
    """dApp and xApp over one channel pair, subscribed and past its first report."""

    def __init__(self, kind: EndpointKind, period_ms: float, seed: int, tracer=None) -> None:
        self.ends = ()
        self.dapp = self.xapp = None
        start = time.monotonic_ns()
        try:
            with _span(tracer, "harness.setup.channel_pair"):
                ends = channel_pair(kind)
                self.ends = ends if tracer is None else spans.timed_pair(tracer, *ends)
            clock = SharedClock()
            scene = radio.EchoScene(targets=(LIVE_TARGET,), snr_db=SNR_DB,
                                    residual_si_power_db=RESIDUAL_SI_DB, seed=_seed32(seed))
            self.dapp = dapp.SensingDapp(
                dapp.DappConfig(report_period_ms=period_ms, active_beam=BEAM),
                {0: default_waveform()}, default_beam_table(), scene, self.ends[0], clock)
            self.xapp = XApp(self.ends[1], policy=A1IsacPolicy(), clock=clock)
            self.dapp.start()
            self.xapp.start()
            with _span(tracer, "harness.setup.subscribe"):
                self.xapp.subscribe(e2sm.SubscriptionMode.PERIODIC, period_ms=period_ms)
            with _span(tracer, "harness.setup.first_report"):
                self.xapp.await_report(0)
        except BaseException:
            self.close()
            raise
        self.setup_ns = time.monotonic_ns() - start

    def close(self) -> None:
        if self.xapp is not None:
            self.xapp.stop()
        if self.dapp is not None:
            self.dapp.stop()
        for end in self.ends:
            end.close()


def _stack_drops(stack: LiveStack) -> tuple[int, int]:
    return stack.dapp.dropped_blocks, stack.dapp.channel.drops


def check_reports(win: Window, reports, subscription_id: int) -> int:
    """Gate the reports the xApp received in the window; returns how many are off target.

    At least ACCURACY_BAR of them must be within RANGE_TOL_M of the target,
    and each must encode and decode back to itself.
    """
    if not reports:
        win.breaches.append("no report reached the xApp in the window")
        return 0
    off_target = sum(abs(r.report.range_m - LIVE_TARGET.range_m) > RANGE_TOL_M
                     for r in reports)
    if (len(reports) - off_target) / len(reports) < ACCURACY_BAR:
        win.breaches.append(f"{off_target}/{len(reports)} reports more than {RANGE_TOL_M} m "
                            f"off the {LIVE_TARGET.range_m} m target")
    for r in reports:
        msg = E2SensMessage(MsgType.INDICATION, subscription_id, r.report)
        if decode_message(encode_message(msg)) != msg:
            win.breaches.append(f"report {r.report.sequence_number}: codec round trip "
                                "changed it")
            break
    return off_target


def run_loop_tcp(seed: int, seconds: float, tracer=None) -> Window:
    win = Window()
    stack = LiveStack(EndpointKind.TCP, LOOP_PERIOD_MS, seed, tracer)
    try:
        win.setup_ns = stack.setup_ns
        xapp = stack.xapp
        warm_until = time.monotonic() + LIVE_WARMUP_S
        while time.monotonic() < warm_until:
            xapp.closed_loop_probe(PROBE_TIMEOUT_S)
        timeouts = errors = 0
        first = len(xapp.reports)
        win.start_ns = time.monotonic_ns()
        deadline = win.start_ns + seconds * 1e9
        while time.monotonic_ns() < deadline:
            win.attempted += 1
            try:
                s = xapp.closed_loop_probe(PROBE_TIMEOUT_S)
            except RequestTimeout:
                timeouts += 1
                continue
            except (ControlError, TransportError):
                errors += 1
                continue
            # All four stamps come from one SharedClock: the dApp stamps t0,
            # the xApp's receive thread t1, the probe the command issue after
            # t1, and the dApp the apply after it received the command.
            if not s.t0_ns <= s.t1_ns <= s.t_cmd_issue_ns <= s.t_cmd_applied_ns:
                win.breaches.append(f"probe {s.sequence_number}: stamps out of order ({s})")
                continue
            win.add(s.telemetry_latency_ns, s.closed_loop_ns)
            win.latency_by_req[f"s{s.sequence_number}"] = s.telemetry_latency_ns
        win.end_ns = time.monotonic_ns()
        received = xapp.reports[first:]
        dropped, drops = _stack_drops(stack)
    finally:
        stack.close()
    win.reports = len(win.cycle_ns)
    win.failed = win.attempted - win.reports
    off_target = check_reports(win, received, xapp.subscription_id)
    win.counters = {"control.timeouts": timeouts, "control.errors": errors,
                    "loop.off_target": off_target,
                    "dapp.dropped_blocks": dropped, "transport.drops": drops}
    return win


def run_stream_inproc(seed: int, seconds: float, tracer=None) -> Window:
    win = Window()
    stack = LiveStack(EndpointKind.IN_PROCESS, STREAM_PERIOD_MS, seed, tracer)
    try:
        win.setup_ns = stack.setup_ns
        xapp = stack.xapp
        time.sleep(LIVE_WARMUP_S)
        first = len(xapp.reports)
        dropped0, drops0 = _stack_drops(stack)
        win.start_ns = time.monotonic_ns()
        time.sleep(seconds)
        last = len(xapp.reports)
        win.end_ns = time.monotonic_ns()
        dropped1, drops1 = _stack_drops(stack)
        received = xapp.reports[first - 1:last]
    finally:
        stack.close()

    prev, window = received[0], received[1:]
    if not window:
        raise RuntimeError("no report reached the xApp in the window")
    seqs = [r.report.sequence_number for r in received]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        win.breaches.append("sequence numbers do not strictly increase")
    # Every sequence number the dApp emitted in the window either arrived or
    # is a gap; frames lost to drop-oldest or a full outbox are gaps too.
    emitted = seqs[-1] - seqs[0]
    gaps = emitted - len(window)
    for r in window:
        win.add(r.t1_ns - r.report.t0, r.t1_ns - prev.t1_ns)
        win.latency_by_req[f"s{r.report.sequence_number}"] = r.t1_ns - r.report.t0
        prev = r
    win.reports = len(window)
    win.attempted = emitted
    off_target = check_reports(win, window, xapp.subscription_id)
    win.failed = gaps + off_target
    win.counters = {"stream.gaps": gaps, "stream.off_target": off_target,
                    "dapp.dropped_blocks": dropped1 - dropped0,
                    "transport.drops": drops1 - drops0, "control.timeouts": 0}
    # How late the dApp's timer ran: report interval beyond the period.
    win.notes["generator_late_ms_p50"] = (
        pctl.percentile(sorted(win.cycle_ns), "50") / 1e6 - STREAM_PERIOD_MS)
    return win


RUNNERS = {"loop-tcp": run_loop_tcp, "stream-inproc": run_stream_inproc}


def setup_s(workload: str, seed: int) -> float:
    """Set-up time of one workload, to its first report."""
    kind, period_ms = ((EndpointKind.TCP, LOOP_PERIOD_MS) if workload == "loop-tcp"
                       else (EndpointKind.IN_PROCESS, STREAM_PERIOD_MS))
    stack = LiveStack(kind, period_ms, seed)
    stack.close()
    return stack.setup_ns / 1e9
