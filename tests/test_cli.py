import json
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chainplan import (ExploitMatrix, cli, classifier, compile_network, load_records,
                       network_from_dict, parse_pddl, records_from_dict)
from chainplan.errors import ChainplanError

from conftest import FIXTURES, JSON_VALUES, MOTIVATING_CHAIN, build_task, mutated_json

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
        ({"command": ""}, "external/command"),
        ({"command": "true {nope}"}, "external/command"),
        ({"command": "true {0}"}, "external/command"),
        ({"command": "true {"}, "external/command"),
        ({"command": "true 'open"}, "external/command"),
        ({"command": "true", "plan_glob": ""}, "external/plan_glob"),
        ({"command": "true", "plan_glob": "/abs*"}, "external/plan_glob"),
        ({"command": "true", "plan_glob": "../plan*"}, "external/plan_glob"),
        ({"command": "true", "plan_glob": "out/../../plan*"}, "external/plan_glob"),
        ({"command": "true", "plan_glob": "."}, "external/plan_glob"),
        ({"command": "true", "plan_glob": "**plan"}, "external/plan_glob"),
        ({"command": "true", "timeout_s": 3e6}, "external/timeout_s"),
        ({"command": "true", "timeout_s": 10 ** 400}, "external/timeout_s"),
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


    @pytest.mark.parametrize("program", ["not_executable", "missing"])
    def test_unlaunchable_planner_exits_1(self, capsys, tmp_path, program):
        (tmp_path / "not_executable").write_text("#!/bin/sh\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"external": {
            "command": f"{tmp_path / program} {{domain}}"}}))
        code, out, err = run_cli(capsys, "plan", "--network", NETWORK,
                                 "--catalog", CATALOG, "--planner", "external",
                                 "--config", str(config))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot launch external planner: ")
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


    @pytest.mark.parametrize("llm, key", [
        ([], "llm"),
        ("http://x", "llm"),
        ({"endpoint": 5}, "llm/endpoint"),
        ({"model": ["m"]}, "llm/model"),
        ({"parallelism": "many"}, "llm/parallelism"),
        ({"parallelism": 0}, "llm/parallelism"),
        ({"parallelism": 2.5}, "llm/parallelism"),
        ({"parallelism": True}, "llm/parallelism"),
    ])
    def test_bad_llm_section_exits_1(self, capsys, tmp_path, monkeypatch, llm, key):
        monkeypatch.setenv(cli.API_KEY_ENV, "test-key")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm": llm}))
        code, out, err = run_cli(capsys, "classify", "--catalog", CATALOG,
                                 "--out", str(tmp_path / "x.json"),
                                 "--endpoint", "http://localhost:1/v1",
                                 "--model", "m", "--config", str(config))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: /{key}: ")
        assert str(config) in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()


_CONFIG = {
    "llm": {"endpoint": "http://localhost:1/v1", "model": "m", "parallelism": 2},
    "external": {"command": "planner {domain} {problem} {plan_out}", "timeout_s": 30,
                 "plan_glob": "plan*"},
}
_CONFIG_VALUES = st.sampled_from(("", "{", "{domain", "{0}", "{domain.x}", "'open", "/abs*",
                                  "../plan*", "**plan", "plan\x00", ".", 0, -1, 3e6,
                                  10 ** 400, True)) | JSON_VALUES


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_config_is_accepted_or_rejected(self, config_dir, data):
        config = config_dir / "config.json"
        config.write_text(json.dumps(data.draw(mutated_json(_CONFIG, _CONFIG_VALUES))))
        for section in (cli._llm_config, cli._external_config):
            try:
                section(str(config))
            except ChainplanError:
                pass


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

    # On purdue_fixture(hosts=21) this connect achieves an atom no exploit
    # needs, so grounding leaves it out; plan files may still name it.
    SUPERFLUOUS = "tcp_connect ot_dmz data1 data3 a--apache--couchdb agent"
    PURDUE21_PLAN = (
        "tcp_connect internet attacker_host web_server2 a--apache--log4j agent",
        "apache_log4j_jndi_ldap_rce attacker_host web_server2 agent",
        "tcp_connect_trusted web_server2 data1 a--apache--couchdb agent",
        "apache_couchdb_arbitrary_command_execution web_server2 data1 agent",
        "tcp_connect ot_dmz data1 lan1 a--elastic--kibana agent",
        "kibana_timelion_prototype_pollution data1 lan1 agent",
        "tcp_connect ot lan1 scada4 a--schneider_electric--citectscada agent",
        "citectscada_odbc_overflow lan1 scada4 agent",
        "windows_com_cross_session_pe scada4 agent",
    )

    @pytest.mark.parametrize("steps, code, verdict", [
        # a superfluous connect once data1 is held: still a valid plan
        (PURDUE21_PLAN[:4] + (SUPERFLUOUS,) + PURDUE21_PLAN[4:], 0,
         {"failed_step": None, "reason": None, "valid": True}),
        # the same connect before data1 is held: its foothold is unmet
        ((SUPERFLUOUS,) + PURDUE21_PLAN, 3,
         {"failed_step": 0, "valid": False, "reason": "unsatisfied clause: "
          "(is_compromised data1 agent HIGH_PRIVILEGES) or "
          "(is_compromised data1 agent LOW_PRIVILEGES) or "
          "(is_compromised data1 agent ROOT_PRIVILEGES)"}),
        # a host never connects to itself
        (("tcp_connect business corp1 corp1 a--apache--couchdb agent",) + PURDUE21_PLAN, 3,
         {"valid": False, "reason": "unknown action "
          "'tcp_connect business corp1 corp1 a--apache--couchdb agent'"}),
    ], ids=["superfluous-connect", "unmet-foothold", "self-connect"])
    def test_connect_steps_outside_the_grounded_task(self, capsys, tmp_path, steps, code,
                                                     verdict):
        from chainplan.synth import purdue_fixture

        network, catalog = purdue_fixture(hosts=21)
        (tmp_path / "net.json").write_text(json.dumps(network))
        (tmp_path / "cat.json").write_text(json.dumps(catalog))
        (tmp_path / "plan").write_text("".join(f"({s})\n" for s in steps))
        got, out, err = run_cli(capsys, "validate-plan", "--network", str(tmp_path / "net.json"),
                                "--catalog", str(tmp_path / "cat.json"),
                                "--plan", str(tmp_path / "plan"), "--format", "json")
        assert (got, json.loads(out), err) == (code, verdict, "")


    # No foothold on corp1 is ever reached, so grounding keeps no exploit from
    # it; full grounding has this one, and a plan file may still name it.
    UNREACHED = "apache_couchdb_arbitrary_command_execution corp1 data1 agent"

    @pytest.mark.parametrize("steps, verdict", [
        # the exploit resolves, and fails on its foothold at its step
        (PURDUE21_PLAN[:2] + (UNREACHED,) + PURDUE21_PLAN[2:],
         {"failed_step": 2, "valid": False, "reason": "unsatisfied clause: "
          "(is_compromised corp1 agent HIGH_PRIVILEGES) or "
          "(is_compromised corp1 agent LOW_PRIVILEGES) or "
          "(is_compromised corp1 agent ROOT_PRIVILEGES)"}),
        # the attacker shares no subnet with data1: no connect gives the
        # connection, so full grounding has no such exploit
        (("apache_couchdb_arbitrary_command_execution attacker_host data1 agent",)
         + PURDUE21_PLAN,
         {"valid": False, "reason": "unknown action "
          "'apache_couchdb_arbitrary_command_execution attacker_host data1 agent'"}),
    ], ids=["unreached-foothold", "no-connect"])
    def test_exploit_steps_outside_the_grounded_task(self, capsys, tmp_path, steps, verdict):
        from chainplan.synth import purdue_fixture

        network, catalog = purdue_fixture(hosts=21)
        (tmp_path / "net.json").write_text(json.dumps(network))
        (tmp_path / "cat.json").write_text(json.dumps(catalog))
        (tmp_path / "plan").write_text("".join(f"({s})\n" for s in steps))
        *_, task = compile_network(network_from_dict(network),
                                   ExploitMatrix(tuple(records_from_dict(catalog))))
        assert self.UNREACHED not in {a.id for a in task.actions}
        got, out, err = run_cli(capsys, "validate-plan", "--network", str(tmp_path / "net.json"),
                                "--catalog", str(tmp_path / "cat.json"),
                                "--plan", str(tmp_path / "plan"), "--format", "json")
        assert (got, json.loads(out), err) == (3, verdict, "")


class TestUsageAndInputErrors:
    def usage_exit(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [
        ("plan", "--network", NETWORK, "--catalog", CATALOG, "--bogus"),
        ("plan", "--network", NETWORK, "--catalog", CATALOG, "--format", "xml"),
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = self.usage_exit(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: chainplan")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["plan", "sweep", "sensitivity"])
    @pytest.mark.parametrize("k", ["0", "-2", "two"])
    def test_k_below_one_exits_1(self, capsys, command, k):
        code, out, err = self.usage_exit(capsys, command, "--network", NETWORK,
                                         "--catalog", CATALOG, "--k", k)
        assert (code, out) == (1, "")
        assert f"argument --k: must be an integer >= 1, not '{k}'" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallelism_below_one_exits_1(self, capsys, tmp_path, value):
        code, out, err = self.usage_exit(capsys, "classify", "--catalog", CATALOG,
                                         "--out", str(tmp_path / "x.json"), "--offline",
                                         "--parallelism", value)
        assert (code, out) == (1, "")
        assert f"argument --parallelism: must be an integer >= 1, not '{value}'" in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command", ["plan", "sweep", "sensitivity"])
    @pytest.mark.parametrize("flag", ["--max-expansions", "--max-len"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_search_bounds_below_one_exit_1(self, capsys, command, flag, value):
        code, out, err = self.usage_exit(capsys, command, "--network", NETWORK,
                                         "--catalog", CATALOG, flag, value)
        assert (code, out) == (1, "")
        assert err.count("error:") == 1
        assert f"argument {flag}: must be an integer >= 1, not '{value}'" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = self.usage_exit(capsys, "sweep", "--help")
        assert code == 0
        assert "--k" in out

    def test_directory_as_network_exits_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "plan", "--network", str(tmp_path),
                                 "--catalog", CATALOG)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_directory_as_plan_exits_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate-plan", "--network", NETWORK,
                                 "--catalog", CATALOG, "--plan", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("plan", "--network", "{bad}", "--catalog", CATALOG),
        ("plan", "--network", NETWORK, "--catalog", "{bad}"),
        ("classify", "--catalog", "{bad}", "--out", "{out}", "--offline"),
        ("validate-plan", "--network", NETWORK, "--catalog", CATALOG, "--plan", "{bad}"),
        ("plan", "--network", NETWORK, "--catalog", CATALOG, "--planner", "external",
         "--config", "{bad}"),
    ])
    def test_non_utf8_input_exits_1(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe{bad")
        argv = [a.format(bad=bad, out=tmp_path / "out.json") for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_non_utf8_plan_names_its_line_and_column(self, capsys, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_bytes(b"; cost = 1\n  ab\xffc\n")
        code, out, err = run_cli(capsys, "validate-plan", "--network", NETWORK,
                                 "--catalog", CATALOG, "--plan", str(plan))
        assert (code, out) == (1, "")
        assert err == f"error: line 2, column 5: byte 0xff in {plan} is not UTF-8\n"

    def test_malformed_external_plan_names_its_file(self, capsys, tmp_path):
        script = tmp_path / "planner.sh"
        script.write_text("#!/bin/sh\necho '(a (b) c)' > \"$3\"\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"external": {
            "command": f"{script} {{domain}} {{problem}} {{plan_out}}"}}))
        code, out, err = run_cli(capsys, "plan", "--network", NETWORK,
                                 "--catalog", CATALOG, "--planner", "external",
                                 "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: plan: line 1, column 1: malformed plan step\n"

    def test_one_product_installed_twice_exits_1(self, capsys, tmp_path):
        # h1's idle ssl 1.0.1 and listening 1.1.0 share one token, so a 1.0.1
        # RCE would fire on h1's listener; the network is rejected on load
        ssl = "cpe:2.3:a:v:ssl:{}:*:*:*:*:*:*:*"
        network = tmp_path / "network.json"
        network.write_text(json.dumps({
            "subnets": ["z"],
            "hosts": [
                {"name": "a0", "subnets": ["z"], "products": []},
                {"name": "h1", "subnets": ["z"], "products": [
                    {"cpe": ssl.format("1.0.1")},
                    {"cpe": ssl.format("1.1.0"), "tcp_listen": True}]},
                {"name": "h2", "subnets": ["z"], "products": [
                    {"cpe": ssl.format("1.0.1"), "tcp_listen": True}]},
            ],
            "scenario": {"attacker_host": "a0", "goal_host": "h1", "goal_privilege": "LOW"},
        }))
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps({"records": [{
            "id": "ssl_rce", "name": "ssl_rce", "source": "other", "description": "d",
            "vulnerable_configs": [ssl.format("1.0.1")], "class": "RCE_TCP_N_L"}]}))
        code, out, err = run_cli(capsys, "plan", "--network", str(network),
                                 "--catalog", str(catalog))
        assert (code, out) == (1, "")
        assert err == "error: /hosts/1/products/1: host 'h1' installs a:v:ssl twice\n"

    @pytest.mark.parametrize("command", ["plan", "emit-pddl"])
    def test_colliding_identifiers_exit_1(self, capsys, tmp_path, command):
        # two vendors that differ only in case sanitize to one product identifier
        data = json.loads(Path(NETWORK).read_text())
        data["hosts"][1]["products"].append(
            {"cpe": "cpe:2.3:a:Drupal:drupal:8.6.9:*:*:*:*:*:*:*"})
        network = tmp_path / "network.json"
        network.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, command, "--network", str(network),
                                 "--catalog", CATALOG, "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == ("error: identifier 'a--drupal--drupal' produced by both "
                       "'a:drupal:drupal' and 'a:Drupal:drupal'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["plan", "emit-pddl"])
    def test_host_named_like_a_version_object_exits_1(self, capsys, tmp_path, command):
        # drupal 8.6.9 declares the major version object ``ma8``
        data = json.loads(Path(NETWORK).read_text())
        data["hosts"].append({"name": "ma8", "subnets": ["lan"], "products": []})
        network = tmp_path / "network.json"
        network.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, command, "--network", str(network),
                                 "--catalog", CATALOG, "--out", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == "error: identifier 'ma8' produced by both 'network:ma8' and 'major:8'\n"
        assert not (tmp_path / "out").exists()

    def test_non_utf8_external_plan_exits_1(self, capsys, tmp_path):
        script = tmp_path / "planner.sh"
        script.write_text("#!/bin/sh\nprintf '\\377\\376{bad' > \"$3\"\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"external": {
            "command": f"{script} {{domain}} {{problem}} {{plan_out}}"}}))
        code, out, err = run_cli(capsys, "plan", "--network", NETWORK,
                                 "--catalog", CATALOG, "--planner", "external",
                                 "--config", str(config))
        assert (code, out) == (1, "")
        assert err == "error: line 1, column 1: byte 0xff in plan is not UTF-8\n"

    def test_file_as_out_directory_exits_1(self, capsys, tmp_path):
        out_file = tmp_path / "taken"
        out_file.write_text("keep\n")
        code, out, err = run_cli(capsys, "emit-pddl", "--network", NETWORK,
                                 "--catalog", CATALOG, "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out_file.read_text() == "keep\n"


def test_verbose_logs_relevance_and_grounding_to_stderr():
    src = str(Path(cli.__file__).resolve().parent.parent)
    argv = ["plan", "--network", NETWORK, "--catalog", CATALOG, "--format", "json", "--no-meta"]
    code = f"import sys; sys.path.insert(0, {src!r}); from chainplan import cli; " \
        "sys.exit(cli.main(sys.argv[1:]))"
    quiet, verbose = (subprocess.run([sys.executable, "-c", code, *flags, *argv],
                                     capture_output=True, text=True, check=True)
                      for flags in ([], ["-v"]))
    assert verbose.stdout == quiet.stdout and quiet.stderr == ""
    assert verbose.stderr.splitlines() == [
        "DEBUG chainplan.netmodel: relevance: 3 records kept, 0 discarded; "
        "5 distinct CPEs, 9 match decisions",
        "DEBUG chainplan.planner: ground: 7 schemas, 13 bindings tried, 7 actions kept, "
        "28 atoms; exploration: 4 rounds, 7 bindings offered, 4 exploits fired, "
        "3 instances left waiting",
        "DEBUG chainplan.planner: search: 1 plan(s), 4 expansions, 5 pushes",
    ]


def test_imports_only_the_standard_library():
    # a fresh interpreter: site .pth hooks may load third-party modules before
    # any import, so only the modules the import itself adds are checked
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules)\n"
            "import chainplan.cli, chainplan\n"
            "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    added = set(result.stdout.split())
    assert "chainplan" in added
    assert added - set(sys.stdlib_module_names) - {"chainplan"} == set()
