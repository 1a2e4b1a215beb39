"""Spans recorded from outside the program, around calls into its modules.

The traced run replaces the names that ``oran_isac`` modules import from one
another (``oran_isac.dapp.apply_scene``, ``oran_isac.control.decode_message``
and so on) with timing wrappers, wraps a few public methods, and puts a
timing ``Channel`` around each end of a channel pair. Nothing inside ``src/``
changes. Spans stay in memory until the run ends.

Each span has a name, start, end, parent span and a request id: ``s<n>`` for
the report with sequence number n, ``c<n>`` for correlation id n. A span
without its own request id takes its parent's. Self time is a span's
duration minus the time its child spans cover; children run on the parent's
thread and nest inside it, so their durations simply add up.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

from oran_isac import control, dapp, e2sm, ofh, radio
from oran_isac.transport import Channel

import pctl

_HOP_KIND = {e2sm.MsgType.SUBSCRIPTION_REQUEST: "subscription",
             e2sm.MsgType.SUBSCRIPTION_RESPONSE: "subscription",
             e2sm.MsgType.INDICATION: "telemetry",
             e2sm.MsgType.CONTROL_REQUEST: "control",
             e2sm.MsgType.CONTROL_ACK: "ack"}

# Spans that mostly block waiting for a peer rather than doing the layer's work.
WAIT_SPANS = ("transport.recv", "control.await_report", "control.closed_loop_probe")


class Span:
    __slots__ = ("name", "start", "end", "parent", "req", "size")

    def __init__(self, name, start, parent, req, size):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.req = req
        self.size = size


class Tracer:
    """In-memory span store; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (kind, send start, recv end, recv wait, request id): one per frame
        # that crossed a channel pair.
        self.hops: list[tuple[str, int, int, int, str | None]] = []
        self._local = threading.local()

    def begin(self, name: str, req: str | None = None, size: int = 0) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = parent.req
        span = Span(name, time.monotonic_ns(), parent, req, size)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.monotonic_ns()
        self._local.stack.pop()

    def write_csv(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        lines = ["id,name,start_ns,end_ns,parent,req,bytes"]
        for i, s in enumerate(self.spans):
            parent = "" if s.parent is None else index[id(s.parent)]
            lines.append(f"{i},{s.name},{s.start},{'' if s.end is None else s.end},"
                         f"{parent},{s.req or ''},{s.size}")
        for kind, start, end, _, req in self.hops:
            lines.append(f",transport.hop.{kind},{start},{end},,{req or ''},0")
        path.write_text("\n".join(lines) + "\n")


def frame_req(frame: bytes) -> str | None:
    """Request id carried by a frame: sequence number or correlation id.

    The header is version, message type, correlation id (u32), payload
    length; an indication ends with its u64 sequence number.
    """
    if len(frame) < e2sm.HEADER_SIZE:
        return None
    if frame[1] == e2sm.MsgType.INDICATION:
        return f"s{int.from_bytes(frame[-8:], 'big')}"
    return f"c{int.from_bytes(frame[2:6], 'big')}"


def msg_req(msg) -> str:
    if msg.msg_type == e2sm.MsgType.INDICATION:
        return f"s{msg.payload.sequence_number}"
    return f"c{msg.correlation_id}"


class TimedChannel(Channel):
    """Channel wrapper timing send and recv and each frame's hop to the peer."""

    def __init__(self, inner: Channel, tracer: Tracer, inflight: dict) -> None:
        self._inner = inner
        self._tracer = tracer
        self._inflight = inflight     # frame bytes -> send start, shared by both ends

    def send(self, frame: bytes, droppable: bool = False) -> None:
        span = self._tracer.begin("transport.send", frame_req(frame), len(frame))
        self._inflight[frame] = span.start
        try:
            self._inner.send(frame, droppable)
        finally:
            self._tracer.end(span)

    def recv(self, timeout: float | None = None) -> bytes:
        span = self._tracer.begin("transport.recv")
        try:
            frame = self._inner.recv(timeout)
        finally:
            self._tracer.end(span)
        sent = self._inflight.pop(frame, None)
        if sent is not None:
            self._tracer.hops.append((_HOP_KIND.get(frame[1], "other"), sent, span.end,
                                      span.end - span.start, frame_req(frame)))
        return frame

    def close(self) -> None:
        self._inner.close()

    @property
    def drops(self) -> int:
        return self._inner.drops


def timed_pair(tracer: Tracer, a: Channel, b: Channel) -> tuple[Channel, Channel]:
    inflight: dict = {}
    return TimedChannel(a, tracer, inflight), TimedChannel(b, tracer, inflight)


def _timed(tracer: Tracer, name: str, fn, req_in=None, req_out=None, size=None):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, req_in(args) if req_in else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if req_out is not None:
            span.req = req_out(result)
        if size is not None:
            span.size = size(args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


class Instrumentation:
    """Installs the timing wrappers and takes them out again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, obj, attr: str, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def function(self, fn, name: str, **kw) -> None:
        """Wrap ``fn`` under every name an ``oran_isac`` module knows it by."""
        wrapper = _timed(self.tracer, name, fn, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("oran_isac"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, wrapper)

    def method(self, cls, attr: str, name: str, **kw) -> None:
        self._replace(cls, attr, _timed(self.tracer, name, getattr(cls, attr), **kw))

    def __enter__(self) -> "Instrumentation":
        self.function(radio.apply_scene, "radio.apply_scene")
        self.function(radio.generate_probe, "radio.generate_probe")
        self.function(dapp.delay_doppler_map, "dapp.delay_doppler_map")
        self.function(dapp.estimate_kpis, "dapp.estimate_kpis")
        self.function(e2sm.encode_message, "e2sm.encode_message",
                      req_in=lambda a: msg_req(a[0]), size=lambda a, r: len(r))
        self.function(e2sm.decode_message, "e2sm.decode_message",
                      req_out=msg_req, size=lambda a, r: len(a[0]))
        self.function(ofh.lookup_waveform, "ofh.lookup_waveform")
        self.function(ofh.decode_metadata, "ofh.decode_metadata")
        self.function(control.enforce_policy, "control.enforce_policy")
        self.method(dapp.SensingDapp, "sense_once", "dapp.sense_once",
                    req_in=lambda a: f"s{a[0].sequence_number + 1}")
        self.method(control.XApp, "closed_loop_probe", "control.closed_loop_probe",
                    req_out=lambda r: f"s{r.sequence_number}")
        self.method(control.XApp, "await_report", "control.await_report")
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


def _p50(values_ns, scale):
    return pctl.percentile(sorted(values_ns), "50") / scale if values_ns else 0.0


def durations(spans: list[Span], name: str) -> list[int]:
    return [s.end - s.start for s in spans if s.name == name]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span, keyed by ``id(span)``, in ns."""
    child = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.end - s.start
    return {id(s): s.end - s.start - child[id(s)] for s in spans}


def layer_metrics(tracer: Tracer, start_ns: int, end_ns: int,
                  latency_ns: dict[str, int]) -> tuple[dict, dict]:
    """Per-layer metrics (value, unit) and per-layer diagnostics of one traced window.

    Rates, counts and shares use the spans that start inside the window;
    set-up spans are taken from the whole run. ``latency_ns`` maps request
    ids to measured report latencies. A metric of a layer the workload does
    not use reads 0.
    """
    done = [s for s in tracer.spans if s.end is not None]
    spans = [s for s in done if start_ns <= s.start < end_ns]
    window_ns = end_ns - start_ns
    own = self_times(spans)
    by_layer = defaultdict(int)
    for s in spans:
        if s.name not in WAIT_SPANS:
            by_layer[s.name.split(".")[0]] += own[id(s)]

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    sends = [s for s in spans if s.name == "transport.send"]
    # Every frame is encoded once and decoded once; count it at the encode.
    encodes = [s for s in spans if s.name == "e2sm.encode_message"]
    sense = sorted(s.start for s in spans if s.name == "dapp.sense_once")
    gaps = [b - a for a, b in zip(sense, sense[1:])]
    hops = defaultdict(list)
    recv_wait = []
    for kind, start, end, wait, _ in tracer.hops:
        if start_ns <= end < end_ns:
            hops[kind].append(end - start)
            recv_wait.append(wait)

    residual = residuals_ns(tracer, latency_ns)
    awaited = {id(s.parent): s.end - s.start for s in spans
               if s.name == "control.await_report" and s.parent is not None}
    ack_rtt = [p.end - p.start - awaited[id(p)] for p in spans
               if p.name == "control.closed_loop_probe" and id(p) in awaited]

    metrics = {
        "radio.apply_scene.ms_p50": (_p50(durations(spans, "radio.apply_scene"), 1e6), "ms"),
        "radio.apply_scene.calls": (count("radio.apply_scene"), "count"),
        "radio.generate_probe.ms": (_p50(durations(done, "radio.generate_probe"), 1e6), "ms"),
        "radio.busy_frac": (by_layer["radio"] / window_ns, "frac"),
        "dapp.delay_doppler_map.ms_p50": (_p50(durations(spans, "dapp.delay_doppler_map"), 1e6), "ms"),
        "dapp.estimate_kpis.ms_p50": (_p50(durations(spans, "dapp.estimate_kpis"), 1e6), "ms"),
        "dapp.sense.ms_p50": (_p50(durations(spans, "dapp.sense_once"), 1e6), "ms"),
        "dapp.busy_frac": (sum(durations(spans, "dapp.sense_once")) / window_ns, "frac"),
        "dapp.interarrival_ms_p50": (_p50(gaps, 1e6), "ms"),
        "e2sm.encode_message.us_p50": (_p50(durations(spans, "e2sm.encode_message"), 1e3), "us"),
        "e2sm.decode_message.us_p50": (_p50(durations(spans, "e2sm.decode_message"), 1e3), "us"),
        "e2sm.frames": (len(encodes), "count"),
        "e2sm.bytes_per_frame": (sum(s.size for s in encodes) / len(encodes) if encodes else 0.0, "B"),
        "e2sm.busy_frac": (by_layer["e2sm"] / window_ns, "frac"),
        "transport.frames": (len(sends), "count"),
        "transport.bytes_per_frame": (sum(s.size for s in sends) / len(sends) if sends else 0.0, "B"),
        "transport.busy_frac": (by_layer["transport"] / window_ns, "frac"),
        "control.acks": (len(hops["ack"]), "count"),
        "ofh.lookup_waveform.calls": (count("ofh.lookup_waveform"), "count"),
        "ofh.decode_metadata.calls": (count("ofh.decode_metadata"), "count"),
        "transport.send.us_p50": (_p50([s.end - s.start for s in sends], 1e3), "us"),
        "transport.hop_us_p50.telemetry": (_p50(hops["telemetry"], 1e3), "us"),
        "transport.hop_us_p50.control": (_p50(hops["control"] + hops["ack"], 1e3), "us"),
        "transport.recv_wait_ms_p50": (_p50(recv_wait, 1e6), "ms"),
        "control.ack_rtt_us_p50": (_p50(ack_rtt, 1e3), "us"),
        "control.await_report_ms_p50": (_p50(list(awaited.values()), 1e6), "ms"),
        "control.enforce_policy.us_p50": (_p50(durations(done, "control.enforce_policy"), 1e3), "us"),
        "harness.setup.channel_pair_ms": (_p50(durations(done, "harness.setup.channel_pair"), 1e6), "ms"),
        "harness.setup.subscribe_ms": (_p50(durations(done, "harness.setup.subscribe"), 1e6), "ms"),
        "harness.residual_us_p50": (_p50(residual, 1e3), "us"),
    }

    diagnostics = {
        "samples": {"hops." + k: len(v) for k, v in hops.items()}
        | {"ack_rtt": len(ack_rtt), "residual": len(residual), "spans": len(spans)},
        "layer_self_ms": {k: v / 1e6 for k, v in sorted(by_layer.items())},
    }
    return metrics, diagnostics


def residuals_ns(tracer: Tracer, latency_ns: dict[str, int]) -> list[int]:
    """Per report: its latency minus the encode span and the hop matched to it.

    ``latency_ns`` maps request id to the report's measured latency. The hop
    runs from send start to the peer's recv return, so it already covers the
    send.
    """
    encode = {s.req: s.end - s.start for s in tracer.spans
              if s.name == "e2sm.encode_message" and s.end is not None}
    hop = {h[4]: h[2] - h[1] for h in tracer.hops if h[0] == "telemetry"}
    return [lat - encode[req] - hop[req]
            for req, lat in latency_ns.items() if req in encode and req in hop]
