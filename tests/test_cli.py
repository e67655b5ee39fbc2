"""End-to-end CLI smoke tests, golden-file compared."""

import json
import os

import pytest

from flyover import cli, simnet

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


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
    # the CLI output matches the frozen crypto fixture line for line
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "crypto_vectors.txt")
    with open(fixture) as fh:
        assert out.read_text() == fh.read()


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
], ids=["zero_link_capacity", "unnamed_flow", "negative_duration", "zero_flow_rate",
        "flow_without_src", "flow_without_path", "one_as_path", "best_effort_without_rate",
        "adversary_without_kind", "spoofer_without_victim", "observer_without_link",
        "observer_on_missing_link", "unknown_requirement", "requirement_without_kind",
        "r4_without_flow", "r1_without_src", "r3_without_adversary", "r2_on_unknown_flow",
        "r3_on_a_flow", "r5_on_unknown_overuser", "r5_on_unknown_replayer",
        "r2_on_best_effort_flow", "r3_on_link_observer"])
def test_scenario_invalid_config_fails_before_run(tmp_path, capsys, edit):
    cfg = simnet.load_scenario(os.path.join(SCENARIOS, "baseline.json"))
    edit(cfg)
    with pytest.raises(simnet.ConfigError):
        simnet.Network(cfg)
    cfg_path = tmp_path / "invalid.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["scenario", "run", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err and "PASS" not in captured.out


def test_usage_error_exit_code():
    assert cli.main(["sim", "cover", "--r", "0.1"]) == 2  # missing --n
    assert cli.main(["unknown-subcommand"]) == 2


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


def test_bench_smoke(capsys):
    assert cli.main(["bench", "validate", "--packets", "200"]) == 0
    assert cli.main(["bench", "admit", "--requests", "100"]) == 0
    out = capsys.readouterr().out
    assert "validations/sec" in out and "admissions/sec" in out


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
