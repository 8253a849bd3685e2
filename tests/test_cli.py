import json

import pytest

from chainplan import cli, classifier, load_records, parse_pddl

from conftest import FIXTURES, MOTIVATING_CHAIN, build_task

NETWORK = str(FIXTURES / "motivating_network.json")
CATALOG = str(FIXTURES / "motivating_catalog.json")
CATALOG_BPF = str(FIXTURES / "motivating_catalog_bpf.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_motivating_chain(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--k", "13",
                               "--format", "json", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        chain = payload["chains"][0]
        assert chain["total_actions"] == 5
        assert chain["chain_length_exploits"] == 3
        assert tuple(step["action"] for step in chain["steps"]) == MOTIVATING_CHAIN

    def test_retarget_goal(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--target", "web_server",
                               "--goal-priv", "LOW", "--format", "json", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["chains"][0]["steps"][-1]["to_host"] == "web_server"

    def test_unreachable_goal_exits_3(self, capsys):
        # ROOT on web_server is not attainable from the planted exploits
        code, out, _ = run_cli(capsys, "plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--target", "web_server",
                               "--format", "json", "--no-meta")
        assert code == 3
        assert json.loads(out)["count"] == 0

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--network", NETWORK,
                               "--catalog", CATALOG)
        assert code == 0
        assert "chain 1: 5 actions, 3 exploits" in out

    def test_reproducible_json(self, capsys):
        args = ("plan", "--network", NETWORK, "--catalog", CATALOG_BPF,
                "--k", "5", "--format", "json", "--no-meta")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--network", NETWORK)
        assert code == 1
        assert "--catalog" in err

    def test_external_planner(self, capsys, tmp_path, motivating_network,
                              motivating_matrix):
        import stat

        plan_text = "\n".join(f"{s} (1)" for s in MOTIVATING_CHAIN) + "\n"
        script = tmp_path / "fake_planner.sh"
        script.write_text("#!/bin/sh\ncat > \"$3\" <<'PLAN'\n" + plan_text + "PLAN\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"external": {
            "command": f"{script} {{domain}} {{problem}} {{plan_out}}",
            "timeout_s": 30,
        }}))
        code, out, _ = run_cli(capsys, "plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--planner", "external",
                               "--config", str(config),
                               "--format", "json", "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert tuple(s["action"] for s in payload["chains"][0]["steps"]) \
            == MOTIVATING_CHAIN

    def test_external_timeout_exits_2(self, capsys, tmp_path):
        import stat

        script = tmp_path / "slow.sh"
        script.write_text("#!/bin/sh\nsleep 5\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"external": {
            "command": f"{script} {{domain}} {{problem}} {{plan_out}}",
            "timeout_s": 0.2,
        }}))
        code, _, err = run_cli(capsys, "plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--planner", "external",
                               "--config", str(config))
        assert code == 2


    @pytest.mark.parametrize("text", ["{not json", "[]"])
    def test_bad_config_exits_1(self, capsys, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, out, err = run_cli(capsys, "plan", "--network", NETWORK,
                                 "--catalog", CATALOG, "--planner", "external",
                                 "--config", str(config))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert str(config) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("external, key", [
        (5, "external"),
        (["true"], "external"),
        ({"command": 5}, "external/command"),
        ({"command": "true", "timeout_s": "soon"}, "external/timeout_s"),
        ({"command": "true", "timeout_s": 0}, "external/timeout_s"),
        ({"command": "true", "timeout_s": -3.5}, "external/timeout_s"),
        ({"command": "true", "timeout_s": True}, "external/timeout_s"),
        ({"command": "true", "plan_glob": ["plan*"]}, "external/plan_glob"),
    ])
    def test_bad_external_section_exits_1(self, capsys, tmp_path, external, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"external": external}))
        code, out, err = run_cli(capsys, "plan", "--network", NETWORK,
                                 "--catalog", CATALOG, "--planner", "external",
                                 "--config", str(config))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: /{key}: ")
        assert str(config) in err
        assert err.count("\n") == 1


class TestEmitPddl:
    def test_written_files_parse_to_emitted_documents(
            self, capsys, tmp_path, motivating_network, motivating_matrix):
        code, _, err = run_cli(capsys, "emit-pddl", "--network", NETWORK,
                               "--catalog", CATALOG, "--out", str(tmp_path))
        assert code == 0
        assert "3 kept, 0 discarded" in err
        domain, problem, _ = build_task(motivating_network, motivating_matrix)
        assert parse_pddl((tmp_path / "domain.pddl").read_text()) == domain
        assert parse_pddl((tmp_path / "problem.pddl").read_text()) == problem

    def test_stdout_streams_both_documents(self, capsys):
        code, out, _ = run_cli(capsys, "emit-pddl", "--network", NETWORK,
                               "--catalog", CATALOG, "--stdout")
        assert code == 0
        assert out.count("(define ") == 2

    def test_empty_relevant_set_exits_1(self, capsys, tmp_path):
        catalog = tmp_path / "irrelevant.json"
        catalog.write_text(json.dumps({"records": [{
            "id": "smb", "name": "smb", "source": "other", "description": "d",
            "vulnerable_configs": ["cpe:2.3:a:microsoft:smb:1.0:*:*:*:*:*:*:*"],
            "class": "RCE_TCP_N_H",
        }]}))
        code, _, err = run_cli(capsys, "emit-pddl", "--network", NETWORK,
                               "--catalog", str(catalog), "--out", str(tmp_path))
        assert code == 1
        assert "no relevant exploit" in err


class TestClassify:
    def test_offline_passthrough(self, capsys, tmp_path):
        out_path = tmp_path / "classified.json"
        code, _, _ = run_cli(capsys, "classify", "--catalog", CATALOG,
                             "--out", str(out_path), "--offline")
        assert code == 0
        original = load_records(CATALOG)
        written = load_records(out_path)
        assert written == original

    def test_missing_api_key_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.API_KEY_ENV, raising=False)
        code, _, err = run_cli(capsys, "classify", "--catalog", CATALOG,
                               "--out", str(tmp_path / "x.json"),
                               "--endpoint", "http://localhost:1/v1",
                               "--model", "m")
        assert code == 1
        assert cli.API_KEY_ENV in err

    def test_online_with_stubbed_endpoint(self, capsys, tmp_path, monkeypatch):
        class Stub:
            def __init__(self, endpoint, model, api_key=None, timeout_s=60.0):
                self.model = model

            def complete(self, messages):
                return "RCE_TCP_N_L"

        monkeypatch.setattr(classifier, "HttpLlmEndpoint", Stub)
        monkeypatch.setattr(cli.classifier, "HttpLlmEndpoint", Stub)
        monkeypatch.setenv(cli.API_KEY_ENV, "test-key")

        data = json.loads((FIXTURES / "motivating_catalog.json").read_text())
        for record in data["records"]:
            record.pop("class")
        unclassified = tmp_path / "unclassified.json"
        unclassified.write_text(json.dumps(data))
        out_path = tmp_path / "classified.json"
        code, out, _ = run_cli(capsys, "classify", "--catalog", str(unclassified),
                               "--out", str(out_path),
                               "--endpoint", "http://stub/v1", "--model", "m",
                               "--cache-dir", str(tmp_path / "cache"),
                               "--format", "json")
        assert code == 0
        written = load_records(out_path)
        assert all(r.exploit_class is not None for r in written)
        summary = json.loads(out)
        assert summary["newly_classified"] == 3


class TestSweepAndSensitivity:
    def test_sweep_counts(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--network", NETWORK,
                               "--catalog", CATALOG, "--format", "json",
                               "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 2
        assert payload["per_host"]["db_server"]["plans"] == 1
        assert "duration_s" not in payload["per_host"]["db_server"]

    def test_sweep_runs_add_timing(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--network", NETWORK,
                               "--catalog", CATALOG, "--format", "json",
                               "--runs", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["runs"] == 3
        assert "duration_std_s" in payload["per_host"]["db_server"]

    def test_sensitivity_counts(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--network", NETWORK,
                               "--catalog", CATALOG_BPF, "--format", "json",
                               "--no-meta")
        assert code == 0
        payload = json.loads(out)
        assert payload["baseline"] == 2
        assert payload["upper_bound"] == 2
        # demoting CouchDB to LOW leaves both kernel PEs usable
        assert payload["lower_bound"] == 2

    def test_sensitivity_reproducible(self, capsys):
        args = ("sensitivity", "--network", NETWORK, "--catalog", CATALOG,
                "--format", "json", "--no-meta")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestValidatePlan:
    def test_valid_plan(self, capsys, tmp_path):
        plan_path = tmp_path / "plan"
        plan_path.write_text("\n".join(f"{s} (1)" for s in MOTIVATING_CHAIN) + "\n")
        code, out, _ = run_cli(capsys, "validate-plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--plan", str(plan_path))
        assert code == 0
        assert "valid plan" in out

    def test_invalid_plan_exits_3(self, capsys, tmp_path):
        plan_path = tmp_path / "plan"
        plan_path.write_text("\n".join(f"{s} (1)" for s in MOTIVATING_CHAIN[1:]) + "\n")
        code, out, _ = run_cli(capsys, "validate-plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--plan", str(plan_path),
                               "--format", "json")
        assert code == 3
        payload = json.loads(out)
        assert payload["valid"] is False
        assert "TCP_connected" in payload["reason"]

    def test_unknown_action_reported(self, capsys, tmp_path):
        plan_path = tmp_path / "plan"
        plan_path.write_text("ghost_step a b (1)\n")
        code, out, _ = run_cli(capsys, "validate-plan", "--network", NETWORK,
                               "--catalog", CATALOG, "--plan", str(plan_path),
                               "--format", "json")
        assert code == 3
        assert "unknown action" in json.loads(out)["reason"]
