"""Fault matrix: each protocol fault, patched into the code, fails the
requirement named for it on its committed scenario. R5 has a row for each
of its three checks: replay and overuse on ``replay_overuse.json``, and
charging past a grant's expiry on ``expired_grant.json``, whose flow keeps
sending on its lapsed grants.

R2 has no row. It reads the router's own request lists, since the wire
does not tell a source whether a grant is tentative, and on
``request_flood.json`` it reads exactly its bound at any flood rate: the
time to a firm grant is set by where the first request falls between two
estimator rotations. The fault it is named for, an estimator that grants
a flooded pair one rotation late, waits for R2 to time grants from the
flow's own responses against the rotation schedule (ROADMAP item 9).
"""

import os

import pytest

from flyover import router, simnet
from flyover.policing import DedupWindow, TrafficMonitor, Verdict
from flyover.router import Decision, Router

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _forward_every_packet(monkeypatch):
    monkeypatch.setattr(Router, "handle_data", lambda self, *args, **kw: Decision.OK)


def _forget_every_packet(monkeypatch):
    monkeypatch.setattr(DedupWindow, "check", lambda self, *args: True)


def _forward_overuse_and_expired(monkeypatch):
    monkeypatch.setitem(router._POLICED, Verdict.OVERUSE, Decision.OK)
    monkeypatch.setitem(router._POLICED, Verdict.EXPIRED, Decision.OK)


def _grants_never_expire(monkeypatch):
    """The monitor holds every grant as unexpired, so it charges packets on
    a lapsed grant as conforming."""
    monkeypatch.setattr("flyover.policing.expired", lambda ts_exp, now: False)


def _one_bucket_per_source(monkeypatch):
    """The monitor keyed by (source, direction), not by flyover: every pair
    of a forward-only source lands on one entry, one token bucket."""
    register, police = TrafficMonitor.register, TrafficMonitor.police
    monkeypatch.setattr(TrafficMonitor, "register", lambda self, src, bw, ts_exp, _in, _out, now:
                        register(self, src, bw, ts_exp, 0, 0, now))
    monkeypatch.setattr(TrafficMonitor, "police", lambda self, src, pkt_len, _in, _out, now:
                        police(self, src, pkt_len, 0, 0, now))


@pytest.mark.parametrize("fault, scenario, edit, failing", [
    (_forward_every_packet, "spoofer.json", {"count": 100},
     [({"r": "R3", "adversary": "forger"}, "spoofer landed 100 priority packets ")]),
    (_forget_every_packet, "replay_overuse.json", {},
     [({"r": "R5", "replayer": "echo"}, "replayed copies delivered=")]),
    (_forward_overuse_and_expired, "replay_overuse.json", {},
     [({"r": "R5", "overuser": "greedy"}, "demoted fraction 0.0000 ")]),
    (_grants_never_expire, "expired_grant.json", {},
     [({"r": "R5", "no_expired_conform": True}, "AS 2 charged src 1 past expiry")]),
    (_one_bucket_per_source, "two_flyovers.json", {},
     [({"r": "R1", "src": 1}, "AS 2 polices no grant of src 1 "),
      ({"r": "R4", "flow": "to4"}, "flow to4: ")]),
], ids=["handle_data_forwards_all", "dedup_forgets", "policing_forwards_all",
        "grants_never_expire", "monitor_keyed_by_direction"])
def test_each_fault_fails_its_requirement(monkeypatch, fault, scenario, edit, failing):
    """Without the fault each of these requirements passes (the scenario
    goldens); with it, each fails with its detail."""
    cfg = simnet.load_scenario(os.path.join(SCENARIOS, scenario))
    for sender in cfg.get("adversaries", []):
        sender.update(edit)
    fault(monkeypatch)
    result = simnet.run_scenario(cfg)
    for req, detail in failing:
        ok, why = simnet.assert_requirement(result, req)
        assert not ok and why.startswith(detail), (req, why)
