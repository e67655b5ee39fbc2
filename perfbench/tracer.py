"""Span tracer for the traced run: wraps public flyover functions from outside.

Only the traced run imports this module. :meth:`Tracer.install` replaces
each boundary below with a wrapper that records a span (boundary, start,
end, parent span, op id, and a small integer tag read from the result);
:meth:`Tracer.uninstall` puts the originals back, so code outside a traced
batch runs unwrapped. Spans live in compact arrays in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array


def _tag_class(args, res, pre):
    return {"P": 1, "B": 0, "D": 2}[res.traffic_class.value]


def _tag_conform(args, res, pre):
    return 1 if res.value == "conform" else 0


def _tag_truth(args, res, pre):
    return 1 if res else 0


def _tag_grant(args, res, pre):
    if res is None:
        return 0
    return 1 if res.tentative else 2


def _pre_rotation(args):
    return args[0].next_rotation


def _tag_rotations(args, res, pre):
    est = args[0]
    return (est.next_rotation - pre) // est.config.interval_ns


def _tag_len(args, res, pre):
    return len(res)


def _tag_queue(args, res, pre):
    link = args[0]
    return len(link.prio) + len(link.be)


# (module, boundary, class or None, attribute, tag function, pre-call reader)
BOUNDARIES = [
    ("crypto", "cbc_mac", None, "cbc_mac", None, None),
    ("crypto", "derive_drkey", None, "derive_drkey", None, None),
    ("crypto", "seal_grant", None, "seal_grant", None, None),
    ("crypto", "unseal_grant", None, "unseal_grant", None, None),
    ("wire", "encode", None, "encode", None, None),
    ("wire", "decode", None, "decode", None, None),
    ("policing", "TrafficMonitor.police", "TrafficMonitor", "police", _tag_conform, None),
    ("policing", "TrafficMonitor.register", "TrafficMonitor", "register", None, None),
    ("policing", "TokenBucket.check", "TokenBucket", "check", None, None),
    ("policing", "DedupWindow.check", "DedupWindow", "check", _tag_truth, None),
    ("admission", "admit_setup", None, "admit_setup", None, None),
    ("admission", "DefaultPolicy.get_bandwidth", "DefaultPolicy", "get_bandwidth",
     _tag_grant, None),
    ("admission", "RequesterEstimator.rotate", "RequesterEstimator", "rotate",
     _tag_rotations, _pre_rotation),
    ("admission", "RequesterEstimator.request", "RequesterEstimator", "request", None, None),
    ("router", "Router.handle_data", "Router", "handle_data", _tag_class, None),
    ("router", "Router.handle_setup", "Router", "handle_setup", None, None),
    ("router", "Router.note_grant", "Router", "note_grant", None, None),
    ("source", "emit_packet", None, "emit_packet", None, None),
    ("source", "build_setup_request", None, "build_setup_request", None, None),
    ("source", "ingest_response", None, "ingest_response", _tag_len, None),
    ("source", "compose", None, "compose", None, None),
    ("simnet", "Network.process_at_node", "Network", "process_at_node", None, None),
    ("simnet", "Link.send", "Link", "send", _tag_queue, None),
    ("simnet", "EventLoop.schedule", "EventLoop", "schedule", None, None),
    ("topo", "generate_topology", None, "generate_topology", None, None),
    ("topo", "build_matrices", None, "build_matrices", None, None),
    ("topo", "build_demands", None, "build_demands", None, None),
    ("topo", "destination_order", None, "destination_order", None, None),
    ("topo", "shortest_path_tree", None, "shortest_path_tree", None, None),
    ("topo", "ReservationStudy", "ReservationStudy", "__init__", None, None),
    ("topo", "ReservationStudy.covers", "ReservationStudy", "covers", None, None),
    ("topo", "ReservationStudy.reservation_rows", "ReservationStudy", "reservation_rows",
     None, None),
    ("topo", "ReservationStudy.pair_bandwidth", "ReservationStudy", "pair_bandwidth",
     None, None),
]

MODULES = ["crypto", "wire", "policing", "admission", "router", "source", "simnet", "topo"]


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{boundary}" for mod, boundary, *_ in BOUNDARIES]
        self.name_col = array("i")
        self.parent_col = array("q")
        self.op_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.tag_col = array("q")
        self.stack = [-1]
        self.op = -1  # id of the operation in progress, set by the workload
        self._patches: list[tuple[object, str, object]] = []

    # installation ----------------------------------------------------------

    def install(self) -> None:
        for idx, (mod, _, cls, attr, tag_fn, pre_fn) in enumerate(BOUNDARIES):
            module = importlib.import_module(f"flyover.{mod}")
            if cls is not None:
                owner = getattr(module, cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, idx, tag_fn, pre_fn))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, idx, tag_fn, pre_fn)
            # patch every flyover module that bound the function by name
            for name, other in list(sys.modules.items()):
                if (name == "flyover" or name.startswith("flyover.")) and \
                        other.__dict__.get(attr) is original:
                    self._patch(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, idx, tag_fn, pre_fn):
        tracer = self
        names, parents, ops = self.name_col, self.parent_col, self.op_col
        starts, ends, tags, stack = self.start_col, self.end_col, self.tag_col, self.stack
        clock = time.perf_counter_ns

        def open_span():
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(tracer.op)
            starts.append(0)
            ends.append(0)
            tags.append(0)
            stack.append(sid)
            return sid

        if inspect.isgeneratorfunction(fn):
            # timed over the consumption of the generator
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid = open_span()
                starts[sid] = clock()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    ends[sid] = clock()
                    stack.pop()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_span()
            pre = pre_fn(args) if pre_fn is not None else None
            starts[sid] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if tag_fn is not None:
                tags[sid] = tag_fn(args, res, pre)
            return res
        return wrapper

    # analysis --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_col)

    def self_times(self) -> list[int]:
        return self_times(self.start_col, self.end_col, self.parent_col)

    def ancestor_of(self, sid: int, target: int) -> int:
        """Nearest ancestor span of ``sid`` with boundary index ``target``, or -1."""
        p = self.parent_col[sid]
        while p >= 0 and self.name_col[p] != target:
            p = self.parent_col[p]
        return p

    def index(self, name: str) -> int:
        return self.names.index(name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span\tboundary\tparent\top\tstart_ns\tend_ns\ttag\n")
            rows = zip(range(len(self)), self.name_col, self.parent_col, self.op_col,
                       self.start_col, self.end_col, self.tag_col)
            fh.writelines(f"{s}\t{self.names[n]}\t{p}\t{o}\t{a}\t{b}\t{t}\n"
                          for s, n, p, o, a, b, t in rows)


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it covered by its children.

    The children of one span must be listed in start order, as the tracer
    records them; child intervals are clipped to their parent and overlaps
    are counted once.
    """
    n = len(starts)
    covered = [0] * n
    watermark = list(starts)  # end of the covered prefix, per parent
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], watermark[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            watermark[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def layer_metrics(tr: Tracer, setup_spans: int, traced_wall_s: float, ops: int,
                  state_readings: dict, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans.

    The first ``setup_spans`` spans come from a traced set-up: they count in
    ``.calls`` and ``.self_us`` but not in the self shares, which are over the
    traced batches' wall time. Returns ``(metrics, c8)``: metrics map
    name -> (value, unit); c8 holds the MAC and PRF spans found under
    ``Router.handle_data`` and the spans that break the two-MAC rule.
    """
    selfs = tr.self_times()
    nb = len(BOUNDARIES)
    calls = [0] * nb
    self_sum = [0] * nb
    batch_self = [0] * nb
    tag_sum = [0] * nb
    tag_max = [0] * nb
    tag_pos = [0] * nb
    tag_two = [0] * nb
    for sid, (name, st, tag) in enumerate(zip(tr.name_col, selfs, tr.tag_col)):
        calls[name] += 1
        self_sum[name] += st
        if sid >= setup_spans:
            batch_self[name] += st
        tag_sum[name] += tag
        if tag > tag_max[name]:
            tag_max[name] = tag
        if tag > 0:
            tag_pos[name] += 1
        if tag == 2:
            tag_two[name] += 1

    m: dict[str, tuple[float, str]] = {}
    wall_ns = traced_wall_s * 1e9
    module_self = dict.fromkeys(MODULES, 0)
    for i, (mod, boundary, *_rest) in enumerate(BOUNDARIES):
        m[f"{mod}.{boundary}.calls"] = (calls[i], "count")
        m[f"{mod}.{boundary}.self_us"] = (self_sum[i] / calls[i] / 1e3 if calls[i] else 0.0,
                                          "us")
        module_self[mod] += batch_self[i]
    for mod in MODULES:
        m[f"{mod}.self_share"] = (module_self[mod] / wall_ns, "ratio")
    m["bench.self_share"] = (1.0 - sum(module_self.values()) / wall_ns, "ratio")
    m["bench.trace_overhead"] = (overhead, "ratio")

    def ratio(a, b):
        return a / b if b else 0.0

    ix = tr.index
    hd = ix("router.Router.handle_data")
    mac, prf = ix("crypto.cbc_mac"), ix("crypto.derive_drkey")
    macs_under = [0] * len(tr)
    prfs_under = [0] * len(tr)
    for sid, name in enumerate(tr.name_col):
        if name == mac or name == prf:
            anc = tr.ancestor_of(sid, hd)
            if anc >= 0:
                (macs_under if name == mac else prfs_under)[anc] += 1
    violations = []
    prio_hops = prio_macs = prio_prfs = 0
    for sid, name in enumerate(tr.name_col):
        if name != hd:
            continue
        if macs_under[sid] > 2 or prfs_under[sid]:
            violations.append(f"span {sid}: {macs_under[sid]} MACs, {prfs_under[sid]} PRFs")
        if tr.tag_col[sid] == 1:
            prio_hops += 1
            prio_macs += macs_under[sid]
            prio_prfs += prfs_under[sid]
            if macs_under[sid] != 2:
                violations.append(f"span {sid}: priority verdict after {macs_under[sid]} MACs")
    c8 = {"violations": violations, "macs": sum(macs_under), "prfs": sum(prfs_under)}
    m["crypto.macs_per_validated_hop"] = (ratio(prio_macs, prio_hops), "mac/hop")
    m["crypto.prf_per_validated_hop"] = (ratio(prio_prfs, prio_hops), "prf/hop")

    visits = calls[hd] + calls[ix("router.Router.handle_setup")]
    m["wire.decodes_per_hop_visit"] = (ratio(calls[ix("wire.decode")], visits), "decode/visit")
    police = ix("policing.TrafficMonitor.police")
    m["policing.conform_ratio"] = (ratio(tag_pos[police], calls[police]), "ratio")
    dedup = ix("policing.DedupWindow.check")
    m["policing.replay_drops"] = (calls[dedup] - tag_pos[dedup], "count")
    m["policing.dedup_entries"] = (state_readings.get("dedup_entries", 0), "count")
    m["policing.monitor_entries"] = (state_readings.get("monitor_entries", 0), "count")
    m["policing.bucket_float_flips"] = (state_readings.get("bucket_float_flips", 0), "count")
    gb = ix("admission.DefaultPolicy.get_bandwidth")
    m["admission.grant_ratio"] = (ratio(tag_pos[gb], calls[gb]), "ratio")
    m["admission.firm_ratio"] = (ratio(tag_two[gb], tag_pos[gb]), "ratio")
    m["admission.rotations_applied"] = (tag_sum[ix("admission.RequesterEstimator.rotate")],
                                        "count")
    m["router.priority_ratio"] = (ratio(tag_pos[hd] - tag_two[hd], calls[hd]), "ratio")
    m["router.state_entries"] = (state_readings.get("router_state_entries", 0), "count")
    m["source.accepted_per_response"] = (
        ratio(tag_sum[ix("source.ingest_response")], calls[ix("source.ingest_response")]),
        "entry/resp")
    m["simnet.events_per_packet"] = (ratio(calls[ix("simnet.EventLoop.schedule")], ops),
                                     "event/pkt")
    m["simnet.be_drops"] = (state_readings.get("be_drops", 0), "count")
    m["simnet.max_queue_depth"] = (tag_max[ix("simnet.Link.send")], "count")
    # every ReservationStudy and every demand set covers all nodes as sources
    n = state_readings.get("study_sources", 0)
    m["topo.tree_walks_per_source"] = (
        ratio(calls[ix("topo.shortest_path_tree")], calls[ix("topo.ReservationStudy")] * n),
        "walk/src")
    m["topo.destination_orders_per_source"] = (
        ratio(calls[ix("topo.destination_order")], calls[ix("topo.build_demands")] * n),
        "order/src")
    return m, c8
