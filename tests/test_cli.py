"""End-to-end CLI smoke tests, golden-file compared."""

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys

import pytest

from flyover import cli, simnet, topo

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _golden(name, newline=None):
    with open(os.path.join(GOLDEN, name), newline=newline) as fh:
        return fh.read()


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the enclosed block with TimeoutError after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_topo_gen_golden(tmp_path):
    out = tmp_path / "topo.json"
    rc = cli.main(["topo", "gen", "--n", "8", "--seed", "1", "--matrices",
                   "-o", str(out)])
    assert rc == 0
    assert out.read_text() == _golden("topo_n8.json")
    doc = json.loads(out.read_text())
    assert doc["n"] == 8 and len(doc["matrices"]) == 8


def test_sim_cover_golden(tmp_path):
    out = tmp_path / "cover.csv"
    rc = cli.main(["sim", "cover", "--n", "60", "--r", "0.2", "--strategy", "both",
                   "--gamma", "100kbps", "--seeds", "1,2", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == _golden("cover_n60.csv")


def test_sim_reservations_golden(tmp_path):
    out = tmp_path / "res.csv"
    rc = cli.main(["sim", "reservations", "--n", "12", "--r", "0.5",
                   "--strategy", "both", "--seeds", "3", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == _golden("reservations_n12.csv")


def test_vectors_golden(tmp_path):
    out = tmp_path / "vectors.txt"
    rc = cli.main(["vectors", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == _golden("vectors.txt")


@pytest.mark.parametrize("argv, golden, config", [
    (["topo", "gen", "--n", "8", "--seed", "1", "--matrices"], "topo_n8.json",
     "# topo gen n=8 m=2 seed=1"),
    (["sim", "reservations", "--n", "12", "--r", "0.5", "--seeds", "3"],
     "reservations_n12.csv", "# sim reservations n=12 m=2 r=0.5 strategy=both seeds=[3]"),
    (["vectors"], "vectors.txt", "# vectors"),
], ids=["topo_gen", "sim_reservations", "vectors"])
def test_stdout_carries_only_data(capsys, argv, golden, config):
    assert cli.main(argv + ["-o", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == _golden(golden, newline="")  # the file's bytes, CRLFs kept
    assert captured.err.startswith(config) and "# wrote" not in captured.out + captured.err


def test_written_files_are_announced(tmp_path, capsys):
    out = tmp_path / "res.csv"
    assert cli.main(["sim", "reservations", "--n", "12", "--r", "0.5", "--seeds", "3",
                     "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "# sim reservations n=12 m=2 r=0.5 strategy=both seeds=[3] min_requesters=1",
        f"# wrote {out}"]
    assert captured.err == ""


def _flyover(*argv):
    """``python -m flyover.cli argv`` in a child process, through ``entry``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.Popen([sys.executable, "-m", "flyover.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_entry_stdout_is_a_topology_file():
    proc = _flyover("topo", "gen", "--n", "8", "--seed", "1", "--matrices")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert json.loads(out) == json.loads(_golden("topo_n8.json"))
    assert err.startswith(b"# topo gen n=8")


def test_entry_ends_silently_when_the_reader_closes_the_pipe():
    proc = _flyover("sim", "reservations", "--n", "200", "--r", "0.5")
    assert proc.stdout.readline() == b"seed,n,r,strategy,src,dst,a_ij_bps\r\n"
    proc.stdout.close()  # ~1.6 MB of rows remain, more than a pipe holds
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert b"error:" not in err


def test_scenario_run_pass_and_outputs(tmp_path, capsys):
    log = tmp_path / "events.log"
    summary = tmp_path / "summary.csv"
    rc = cli.main(["scenario", "run", os.path.join(SCENARIOS, "baseline.json"),
                   "--seed", "7", "--log", str(log), "--summary", str(summary)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "R4: PASS" in out and "R1: PASS" in out
    assert log.exists() and summary.exists()
    assert "flow,sent,delivered" in summary.read_text()


def test_scenario_run_deterministic_logs(tmp_path):
    logs = []
    for run in (1, 2):
        log = tmp_path / f"run{run}.log"
        rc = cli.main(["scenario", "run", os.path.join(SCENARIOS, "baseline.json"),
                       "--seed", "7", "--log", str(log)])
        assert rc == 0
        logs.append(log.read_text())
    assert logs[0] == logs[1]


def test_scenario_run_failure_exit_code(tmp_path, capsys):
    cfg = simnet.load_scenario(os.path.join(SCENARIOS, "baseline.json"))
    # a conforming flow cannot show 50% overuse demotion: must fail
    cfg["requirements"] = [{"r": "R5", "overuser": "critical",
                            "expected_fraction": 0.5, "tolerance": 0.02}]
    cfg_path = tmp_path / "impossible.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["scenario", "run", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 1 and "FAIL" in out


def test_scenario_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["scenario", "run", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda cfg: cfg["topology"]["links"][1].update(capacity="0bps"),
    lambda cfg: cfg["flows"][0].pop("name"),
    lambda cfg: cfg.update(duration="-10ms"),
    lambda cfg: cfg["flows"][0].update(rate="0bps"),
    lambda cfg: cfg["flows"][0].pop("src"),
    lambda cfg: cfg["flows"][0].pop("path"),
    lambda cfg: cfg["flows"][0].update(path=[1]),
    lambda cfg: cfg["flows"].append({"type": "best_effort", "name": "be", "src": 1,
                                     "path": [1, 2]}),
    lambda cfg: cfg.update(adversaries=[{"name": "adv", "src": 2, "path": [2, 3]}]),
    lambda cfg: cfg.update(adversaries=[{"name": "spoof", "kind": "spoofer", "src": 2,
                                         "path": [2, 3, 4]}]),
    lambda cfg: cfg.update(adversaries=[{"name": "tap", "kind": "link_observer"}]),
    lambda cfg: cfg.update(adversaries=[{"name": "tap", "kind": "link_observer",
                                         "link": [1, 5]}]),
    lambda cfg: cfg["requirements"].append({"r": "R9"}),
    lambda cfg: cfg["requirements"].append({"flow": "critical"}),
    lambda cfg: cfg["requirements"][0].pop("flow"),
    lambda cfg: cfg["requirements"].append({"r": "R1"}),
    lambda cfg: cfg["requirements"].append({"r": "R3"}),
    lambda cfg: cfg["requirements"].append({"r": "R2", "flow": "nobody"}),
    lambda cfg: cfg["requirements"].append({"r": "R3", "adversary": "critical"}),
    lambda cfg: cfg["requirements"].append({"r": "R5", "overuser": "nobody"}),
    lambda cfg: cfg["requirements"].append({"r": "R5", "replayer": "nobody"}),
    lambda cfg: cfg.update(flows=cfg["flows"] + [{"type": "best_effort", "name": "be", "src": 1,
                                                  "path": [1, 2], "rate": "1Mbps"}],
                           requirements=[{"r": "R2", "flow": "be"}]),
    lambda cfg: cfg.update(adversaries=[{"name": "tap", "kind": "link_observer",
                                         "link": [1, 2]}],
                           requirements=[{"r": "R3", "adversary": "tap"}]),
    lambda cfg: cfg.update(adversaries=[{"name": "flood", "kind": "request_flood", "src": 2,
                                         "path": [2, 3], "requests_per_s": 0}]),
    lambda cfg: cfg.update(adversaries=[{"name": "flood", "kind": "request_flood", "src": 2,
                                         "path": [2, 3], "requests_per_s": -5}]),
    lambda cfg: cfg.update(adversaries=[{"name": "spoof", "kind": "spoofer", "src": 2,
                                         "victim": 1, "path": [2, 3], "gap": "-1ms"}]),
    lambda cfg: cfg.update(adversaries=[{"name": "echo", "kind": "replayer", "link": [1, 2],
                                         "delay": "-1ms"}]),
    lambda cfg: cfg.update(adversaries=[{"name": "greedy", "kind": "overuser", "src": 2,
                                         "path": [2, 3], "factor": 0}]),
    lambda cfg: cfg.update(adversaries=[{"name": "greedy", "kind": "overuser", "src": 2,
                                         "path": [2, 3], "factor": -1}]),
    lambda cfg: cfg["estimator"].update(interval="0s"),
    lambda cfg: cfg["estimator"].update(interval="-1s"),
    lambda cfg: cfg["flows"][0].update(packet_size=-10),
    lambda cfg: cfg.update(adversaries=[{"name": "flood", "kind": "best_effort_flood", "src": 2,
                                         "path": [2, 3], "rate": "1Mbps",
                                         "packet_size": -10}]),
    lambda cfg: cfg.update(adversaries=[{"name": "flood", "kind": "best_effort_flood", "src": 2,
                                         "path": [2, 3], "rate": "1Mbps", "packet_size": 0}]),
    lambda cfg: cfg.update(adversaries=[{"name": "spoof", "kind": "spoofer", "src": 2,
                                         "victim": 1, "path": [2, 3], "packet_size": -10}]),
    lambda cfg: cfg.update(adversaries=[{"name": "greedy", "kind": "overuser", "src": 2,
                                         "path": [2, 3], "packet_size": -10}]),
    lambda cfg: cfg["topology"]["links"][0].update(delay="-1ms"),
    lambda cfg: cfg["flows"][0].update(setup_at="-1ms"),
    lambda cfg: cfg["flows"].append({"type": "best_effort", "name": "be", "src": 1,
                                     "path": [1, 2], "rate": "1Mbps", "start": "-1ms"}),
    lambda cfg: cfg["flows"][0].update(src=99),
    lambda cfg: cfg["flows"].append(dict(cfg["flows"][0], src=2, path=[2, 3, 4])),
    lambda cfg: cfg.update(adversaries=[{"name": "critical", "kind": "spoofer", "src": 2,
                                         "victim": 1, "path": [2, 3]}]),
    lambda cfg: cfg.update(bucket_window="0s"),
    lambda cfg: cfg.update(lifetime="-1ms"),
    lambda cfg: cfg.update(delta="-1ms"),
    lambda cfg: cfg.update(be_buffer=-1),
    lambda cfg: cfg.update(adversaries=[{"name": "echo", "kind": "replayer", "link": [1, 2],
                                         "copies": 0}]),
    lambda cfg: cfg["flows"][0].update(backward=True, len_b=65536),
    lambda cfg: cfg["flows"][0].update(backward=True, len_b=-1),
    # 22 header bytes and 4 per validation field: one byte over 65535
    lambda cfg: cfg["flows"][0].update(packet_size=65535 - 22 - 4 * 4 + 1),
    lambda cfg: cfg.update(adversaries=[{"name": "greedy", "kind": "overuser", "src": 2,
                                         "path": [2, 3], "packet_size": 65535 - 22 - 4 + 1}]),
    lambda cfg: cfg.update(adversaries=[{"name": "spoof", "kind": "spoofer", "src": 2,
                                         "victim": 1, "path": [2, 3, 4],
                                         "packet_size": 65535 - 22 - 4 * 2 + 1}]),
    lambda cfg: cfg.update(clock_skew={"1": "-1ms"}),
    lambda cfg: cfg["topology"]["links"].append({"a": 5, "b": 99}),
    lambda cfg: cfg["topology"]["ases"].append({"id": 3}),
    lambda cfg: cfg["topology"]["links"].append({"a": 1, "b": 2, "capacity": "1Mbps"}),
    lambda cfg: cfg["topology"]["links"].append({"a": 3, "b": 3}),
    lambda cfg: cfg.update(clock_skew={"99": "1ms"}),
    lambda cfg: cfg["flows"][0].update(path=[1, 2, 1, 2, 3]),
    lambda cfg: cfg["topology"]["links"][0].pop("a"),
    lambda cfg: cfg["topology"]["ases"][0].pop("id"),
    lambda cfg: cfg.update(flows={"name": "critical", "src": 1, "path": [1, 2]}),
    lambda cfg: cfg.update(seed="x"),
    lambda cfg: cfg["flows"][0].update(backward="false"),
    lambda cfg: cfg.update(adversaries=[{"name": "flood", "kind": "request_flood", "src": 2,
                                         "path": [2, 3], "stop_at": "1s"}]),
    lambda cfg: cfg["flows"][0].update(src=2),
    lambda cfg: cfg["requirements"][1].update(src=99),
    lambda cfg: cfg["topology"]["ases"][1].update(matrix=[[0, 1], [1, 0]]),
    lambda cfg: cfg["topology"]["links"][0].update(capacity="infGbps"),
    lambda cfg: cfg["topology"]["links"][0].update(capacity=float("inf")),  # JSON Infinity
    lambda cfg: cfg["topology"]["links"][0].update(delay="nanms"),
    lambda cfg: cfg.update(adversaries=[{"name": "greedy", "kind": "overuser", "src": 2,
                                         "path": [2, 3], "factor": float("inf")}]),
    lambda cfg: cfg.update(estimator=5),
    lambda cfg: cfg.update(topology={"n": 2, "links": [{"a": 0, "b": 1}],
                                     "matrices": {"2": [[0, 1], [1, 0]]}}),
], ids=["zero_link_capacity", "unnamed_flow", "negative_duration", "zero_flow_rate",
        "flow_without_src", "flow_without_path", "one_as_path", "best_effort_without_rate",
        "adversary_without_kind", "spoofer_without_victim", "observer_without_link",
        "observer_on_missing_link", "unknown_requirement", "requirement_without_kind",
        "r4_without_flow", "r1_without_src", "r3_without_adversary", "r2_on_unknown_flow",
        "r3_on_a_flow", "r5_on_unknown_overuser", "r5_on_unknown_replayer",
        "r2_on_best_effort_flow", "r3_on_link_observer", "zero_request_rate",
        "negative_request_rate", "negative_spoofer_gap", "negative_replay_delay",
        "zero_overuse_factor", "negative_overuse_factor", "zero_estimator_interval",
        "negative_estimator_interval", "negative_flow_packet_size",
        "negative_flood_packet_size", "empty_flood_packets", "negative_spoofer_packet_size",
        "negative_overuser_packet_size", "negative_link_delay", "negative_setup_at",
        "negative_best_effort_start", "unknown_source_as", "duplicate_flow_name",
        "adversary_named_as_a_flow", "zero_bucket_window", "negative_lifetime",
        "negative_delta", "negative_be_buffer", "zero_replay_copies", "len_b_over_u16",
        "negative_len_b", "oversized_flow_packet", "oversized_overuser_packet",
        "oversized_spoofer_packet", "sender_clock_below_zero_at_start", "link_to_unknown_as",
        "duplicate_as_id", "duplicate_link", "self_loop_link", "clock_skew_on_unknown_as",
        "path_visits_an_as_twice", "link_without_a", "as_without_id", "flows_not_a_list",
        "non_integer_seed", "string_boolean", "stop_at_on_request_flood", "path_not_from_src",
        "r1_on_unknown_as", "matrix_of_wrong_size", "infinite_link_capacity",
        "json_infinity_link_capacity", "nan_link_delay", "infinite_overuse_factor",
        "estimator_not_an_object", "topo_gen_matrix_for_an_unknown_as"])
def test_scenario_invalid_config_fails_before_run(tmp_path, capsys, request, edit):
    """Each config is refused with its golden message, before the run."""
    want = dict(line.split("\t") for line in _golden("invalid_configs.txt").splitlines())
    cfg = simnet.load_scenario(os.path.join(SCENARIOS, "baseline.json"))
    edit(cfg)
    cfg_path = tmp_path / "invalid.json"
    cfg_path.write_text(json.dumps(cfg))
    with _deadline(20):  # a config that slips through may hang the run
        with pytest.raises(simnet.ConfigError) as refused:
            simnet.Network(cfg)
        rc = cli.main(["scenario", "run", str(cfg_path)])
    captured = capsys.readouterr()
    assert str(refused.value) == want[request.node.callspec.id]
    assert rc == 2
    assert f"error: {refused.value}" in captured.err and "PASS" not in captured.out


_SPOOFER = {"name": "spoof", "kind": "spoofer", "src": 2, "victim": 1, "path": [2, 3]}


@pytest.mark.parametrize("edit, typo, known", [
    (lambda cfg: cfg.update(durration="1s"), "durration", "duration"),
    (lambda cfg: cfg["topology"].update(linsk=[]), "linsk", "links"),
    (lambda cfg: cfg["topology"]["ases"][0].update(enabeld=False), "enabeld", "enabled"),
    (lambda cfg: cfg["topology"]["links"][0].update(capacty="1Gbps"), "capacty", "capacity"),
    (lambda cfg: cfg["estimator"].update(intervall="5s"), "intervall", "interval"),
    (lambda cfg: cfg["flows"][0].update(packet_sise=500), "packet_sise", "packet_size"),
    (lambda cfg: cfg["flows"].append({"type": "best_effort", "name": "be", "src": 1,
                                      "path": [1, 2], "rate": "1Mbps", "strat": "1ms"}),
     "strat", "start"),
    (lambda cfg: cfg.update(adversaries=[{"kind": "best_effort_flood", "name": "flood",
                                          "src": 2, "path": [2, 3], "rate": "1Mbps",
                                          "stop_att": "1s"}]), "stop_att", "stop_at"),
    (lambda cfg: cfg.update(adversaries=[{"kind": "overuser", "name": "greedy", "src": 2,
                                          "path": [2, 3], "factr": 3}]), "factr", "factor"),
    (lambda cfg: cfg.update(adversaries=[{"kind": "request_flood", "name": "flood", "src": 2,
                                          "path": [2, 3], "requests_per_sec": 5}]),
     "requests_per_sec", "requests_per_s"),
    (lambda cfg: cfg.update(adversaries=[dict(_SPOOFER, cuont=10)]), "cuont", "count"),
    (lambda cfg: cfg.update(adversaries=[{"kind": "replayer", "name": "echo", "link": [1, 2],
                                          "copys": 2}]), "copys", "copies"),
    (lambda cfg: cfg.update(adversaries=[{"kind": "link_observer", "name": "tap",
                                          "link": [1, 2], "lnik": [1, 2]}]), "lnik", "link"),
    (lambda cfg: cfg["requirements"][1].update(scr=1), "scr", "src"),
    (lambda cfg: cfg["requirements"].append({"r": "R2", "flow": "critical", "flwo": "x"}),
     "flwo", "flow"),
    (lambda cfg: cfg.update(adversaries=[_SPOOFER],
                            requirements=[{"r": "R3", "adversary": "spoof",
                                           "max_sucesses": 0}]), "max_sucesses",
     "max_successes"),
    (lambda cfg: cfg["requirements"][0].update(folw="critical"), "folw", "flow"),
    (lambda cfg: cfg["requirements"].append({"r": "R5", "tolerence": 0.1}), "tolerence",
     "tolerance"),
], ids=["top_level", "topology", "as", "link", "estimator", "reservation", "best_effort",
        "best_effort_flood", "overuser", "request_flood", "spoofer", "replayer",
        "link_observer", "r1", "r2", "r3", "r4", "r5"])
def test_scenario_misspelled_key_names_the_closest_key(tmp_path, capsys, edit, typo, known):
    cfg = simnet.load_scenario(os.path.join(SCENARIOS, "baseline.json"))
    edit(cfg)
    cfg_path = tmp_path / "misspelled.json"
    cfg_path.write_text(json.dumps(cfg))
    with _deadline(20):
        rc = cli.main(["scenario", "run", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"unknown key {typo!r}" in err and f"closest known key is {known!r}" in err, err


def test_usage_error_exit_code(tmp_path, capsys, monkeypatch):
    assert cli.main(["sim", "cover", "--r", "0.1"]) == 2  # missing --n
    assert cli.main(["unknown-subcommand"]) == 2
    out = str(tmp_path / "out")
    for argv in (
        ["topo", "gen", "--n", "1"],
        ["topo", "gen", "--n", "20", "--m", "0"],
        ["sim", "cover", "--n", "20", "--r", "0.5", "--m", "0"],
        ["sim", "reservations", "--n", "20", "--r", "3"],
        ["sim", "reservations", "--n", "20", "--r", "0"],
        ["sim", "plot", "--n", "20", "--r", "0"],
        ["sim", "reservations", "--n", "20", "--r", "0.5", "--seeds", ""],
        ["sim", "cover", "--n", "30", "--r", "0.5", "--jobs", "-3"],
        ["sim", "reservations", "--n", "20", "--r", "0.5", "--min-requesters", "0"],
        ["sim", "cover", "--n", "20", "--r", "0.5", "--gamma", "inf"],
        ["sim", "plot", "--n", "20", "--r", "0.5", "--gammas", "1kbps,nan"],
    ):
        capsys.readouterr()
        assert cli.main(argv + ["-o", out]) == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err, argv

    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(topo, "generate_topology", no_graph)
    for argv in (  # thresholds are rejected before any graph is built
        ["sim", "plot", "--n", "30", "--r", "0.5", "--gammas", "0bps,1kbps"],
        ["sim", "cover", "--n", "30", "--r", "0.5", "--gamma=-5kbps"],
        ["sim", "cover", "--n", "30", "--r", "0.5", "--gamma", "0.5bps"],
    ):
        capsys.readouterr()
        assert cli.main(argv + ["-o", out]) == 2, argv
        assert "must be a positive bandwidth" in capsys.readouterr().err, argv


def test_sim_plot_svg_golden(tmp_path):
    out = tmp_path / "cover.svg"
    rc = cli.main(["sim", "plot", "--n", "40", "--r", "0.5", "--seed", "2",
                   "--gammas", "10kbps,1Mbps,100Mbps", "-o", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert svg == _golden("plot_n40.svg")


def test_scenario_log_golden(tmp_path):
    log = tmp_path / "events.log"
    rc = cli.main(["scenario", "run", os.path.join(SCENARIOS, "baseline.json"),
                   "--seed", "7", "--log", str(log)])
    assert rc == 0
    assert log.read_text() == _golden("baseline_seed7.log")


SCENARIO_NAMES = sorted(f[:-5] for f in os.listdir(SCENARIOS) if f.endswith(".json"))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_golden(tmp_path, capsys, name):
    """Every committed scenario passes, with the verdict lines and the
    ``--summary`` CSV of its golden, and every golden has its scenario."""
    assert sorted(os.listdir(os.path.join(GOLDEN, "scenarios"))) == [
        f"{n}.csv" for n in SCENARIO_NAMES]
    summary = tmp_path / "summary.csv"
    rc = cli.main(["scenario", "run", os.path.join(SCENARIOS, f"{name}.json"),
                   "--summary", str(summary)])
    verdicts = [line for line in capsys.readouterr().out.splitlines(keepends=True)
                if not line.startswith("#")]
    assert rc == 0
    assert "".join(verdicts) + summary.read_text() == _golden(f"scenarios/{name}.csv")


def test_bandwidth_flag_units(tmp_path):
    out = tmp_path / "c.csv"
    rc = cli.main(["sim", "cover", "--n", "30", "--r", "0.5", "--gamma", "0.1Mbps",
                   "--seeds", "1", "-o", str(out)])
    assert rc == 0
    assert ",100000," in out.read_text()  # 0.1 Mbps parsed to bps


def test_jobs_fanout_matches_sequential(tmp_path):
    seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
    base = ["sim", "cover", "--n", "40", "--r", "0.5", "--seeds", "1,2,3"]
    assert cli.main(base + ["-o", str(seq)]) == 0
    assert cli.main(base + ["--jobs", "3", "-o", str(par)]) == 0
    assert seq.read_text() == par.read_text()


def test_generated_topology_file_drives_scenarios(tmp_path):
    topo_file = tmp_path / "topo.json"
    assert cli.main(["topo", "gen", "--n", "10", "--seed", "2", "--matrices",
                     "-o", str(topo_file)]) == 0
    cfg = {
        "seed": 1, "duration": "40ms", "warm_start": True,
        "estimator": {"min_requesters": 1, "tentative_slots": 0, "exact": True},
        "topology": str(topo_file),
        "flows": [{"type": "reservation", "name": "f", "src": 3, "path": [3, 0, 2],
                   "rate": "5Mbps", "packet_size": 400, "stop_at": "30ms"}],
        "requirements": [{"r": "R4", "flow": "f"}],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["scenario", "run", str(cfg_path)]) == 0


@pytest.mark.parametrize("n", [10, 60])
def test_generated_document_numbers_interfaces_as_topo_does(tmp_path, n):
    """A `topo gen` document's links may come in any order: each AS still
    numbers its interfaces by ascending neighbour id, as `topo` and the
    document's matrices do."""
    topo_file = tmp_path / "topo.json"
    assert cli.main(["topo", "gen", "--n", str(n), "--seed", "2", "--matrices",
                     "-o", str(topo_file)]) == 0
    doc = json.loads(topo_file.read_text())
    g = topo.generate_topology(n, 2, 2)
    rows = [m.rows() for m in topo.build_matrices(g)]
    assert [doc["matrices"][str(u)] for u in range(n)] == rows
    reversed_links = {**doc, "links": doc["links"][::-1]}
    for document in (doc, reversed_links):
        net = simnet.Network({"topology": document})
        assert [net.nodes[u].if_to for u in range(n)] == g.if_index
        assert [net.nodes[u].router.matrix.rows() for u in range(n)] == rows


def _option_table(parser, prefix=""):
    """Command path -> sorted (option strings, default, required, choices) of
    every option the command takes, help aside."""
    rows = {}
    for act in parser._actions:
        if isinstance(act, argparse._SubParsersAction):
            for name, sub in act.choices.items():
                rows.update(_option_table(sub, f"{prefix} {name}".strip()))
    opts = sorted((tuple(a.option_strings) or (a.dest,), a.default, a.required,
                   None if a.choices is None else tuple(a.choices))
                  for a in parser._actions
                  if not isinstance(a, (argparse._SubParsersAction, argparse._HelpAction)))
    if opts or not rows:
        rows[prefix] = opts
    return rows


_SIM_COMMON = [(("--jobs",), 1, False, None), (("--m",), 2, False, None),
               (("--min-requesters",), 1, False, None), (("--n",), None, True, None),
               (("--r",), None, True, None), (("--seeds",), [1], False, None),
               (("--strategy",), "both", False, ("max", "concurrent", "both")),
               (("-o", "--output"), "-", False, None)]


def test_cli_options_do_not_change():
    assert _option_table(cli.build_parser()) == {
        "topo gen": [(("--m",), 2, False, None), (("--matrices",), False, False, None),
                     (("--n",), None, True, None), (("--seed",), 1, False, None),
                     (("-o", "--output"), "-", False, None)],
        "sim reservations": _SIM_COMMON,
        "sim cover": sorted(_SIM_COMMON + [(("--gamma",), "100kbps", False, None)]),
        "sim plot": [(("--gammas",), "1kbps,10kbps,100kbps,1Mbps,10Mbps,100Mbps", False, None),
                     (("--m",), 2, False, None), (("--min-requesters",), 1, False, None),
                     (("--n",), None, True, None), (("--r",), 0.1, False, None),
                     (("--seed",), 1, False, None), (("-o", "--output"), None, True, None)],
        "scenario run": [(("--log",), None, False, None), (("--seed",), None, False, None),
                         (("--summary",), None, False, None), (("config",), None, True, None)],
        "vectors": [(("-o", "--output"), "-", False, None)],
    }
