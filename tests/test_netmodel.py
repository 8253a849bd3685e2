import copy
import json

import pytest

from chainplan import (
    ExploitMatrix,
    Protocol,
    network_from_dict,
    reachable_products,
    records_from_dict,
    select_relevant_exploits,
)
from chainplan.errors import DanglingReference, SchemaError, UnknownHost

from conftest import FIXTURES, fixture_pair


def _motivating_dict():
    return json.loads((FIXTURES / "motivating_network.json").read_text())


def _catalog_records(*records):
    return ExploitMatrix(tuple(records_from_dict({"records": list(records)})))


def _record(record_id, rec_class, config, **overrides):
    base = {
        "id": record_id,
        "name": record_id,
        "source": "other",
        "description": "d",
        "cves": [],
        "cvss_vectors": [],
        "vulnerable_configs": [config],
        "class": rec_class,
    }
    base.update(overrides)
    return base


class TestLoadNetwork:
    def test_motivating_layout(self, motivating_network):
        net = motivating_network
        assert net.subnets == ("dmz", "lan")
        assert net.host_names() == ("attacker_host", "web_server", "db_server")
        assert net.host("web_server").subnets == ("dmz", "lan")
        assert [p.token for p in net.host("web_server").tcp_listen] \
            == ["a--drupal--drupal"]
        assert net.scenario.attacker_host == "attacker_host"
        assert net.scenario.goal_host == "db_server"

    def test_listen_flag_and_list_forms(self):
        data = _motivating_dict()
        db = data["hosts"][2]
        db["products"][1].pop("tcp_listen")
        db["tcp_listen"] = ["a--apache--couchdb"]
        net = network_from_dict(data)
        assert [p.token for p in net.host("db_server").tcp_listen] \
            == ["a--apache--couchdb"]

    def test_dangling_listen(self):
        data = _motivating_dict()
        data["hosts"][2]["tcp_listen"] = ["a--missing--product"]
        with pytest.raises(DanglingReference):
            network_from_dict(data)

    def test_empty_hosts(self):
        data = _motivating_dict()
        data["hosts"] = []
        with pytest.raises(SchemaError):
            network_from_dict(data)

    def test_unknown_subnet(self):
        data = _motivating_dict()
        data["hosts"][0]["subnets"] = ["ghost"]
        with pytest.raises(DanglingReference):
            network_from_dict(data)

    def test_unknown_scenario_host(self):
        data = _motivating_dict()
        data["scenario"]["goal_host"] = "ghost"
        with pytest.raises(DanglingReference):
            network_from_dict(data)

    def test_attacker_equals_goal(self):
        data = _motivating_dict()
        data["scenario"]["goal_host"] = "attacker_host"
        with pytest.raises(SchemaError):
            network_from_dict(data)

    def test_duplicate_host(self):
        data = _motivating_dict()
        data["hosts"].append(copy.deepcopy(data["hosts"][1]))
        with pytest.raises(SchemaError):
            network_from_dict(data)

    def test_reserved_name(self):
        data = _motivating_dict()
        data["hosts"][1]["name"] = "agent"
        with pytest.raises(SchemaError):
            network_from_dict(data)

    def test_wildcard_product_rejected(self):
        data = _motivating_dict()
        data["hosts"][1]["products"].append({"cpe": "cpe:2.3:a:*:*:*:*:*:*:*:*:*:*"})
        with pytest.raises(SchemaError):
            network_from_dict(data)

    def test_trusted_channel_unknown_host(self):
        data = _motivating_dict()
        data["trusted_channels"] = [["web_server", "ghost"]]
        with pytest.raises(DanglingReference):
            network_from_dict(data)

    @pytest.mark.parametrize("edit, pointer", [
        (lambda d: d.update(hosts=5), "/hosts"),
        (lambda d: d["hosts"][1].update(subnets="dmz"), "/hosts/1/subnets"),
        (lambda d: d["hosts"][1].update(name=7), "/hosts/1/name"),
        (lambda d: d["scenario"].update(goal_privilege=3), "/scenario/goal_privilege"),
        (lambda d: d["scenario"].update(goal_privilege="MEGA"), "/scenario/goal_privilege"),
        (lambda d: d["scenario"].update(goal_host=["db_server"]), "/scenario/goal_host"),
        (lambda d: d.update(trusted_channels=[["web_server", 1]]), "/trusted_channels/0"),
    ])
    def test_wrong_types_raise_schema_error(self, edit, pointer):
        data = _motivating_dict()
        edit(data)
        with pytest.raises(SchemaError) as err:
            network_from_dict(data)
        assert err.value.pointer == pointer

    def test_default_privileges(self, motivating_network):
        from chainplan import PrivilegeLevel

        assert motivating_network.scenario.attacker_privilege is PrivilegeLevel.ROOT
        assert motivating_network.scenario.goal_privilege is PrivilegeLevel.ROOT


class TestRelevance:
    def test_motivating_all_relevant(self, motivating_network, motivating_matrix):
        result = select_relevant_exploits(motivating_network, motivating_matrix)
        assert result.ids == motivating_matrix.ids
        assert result.discarded_count == 0
        hosts = {r.exploit_id: [h for h, _ in r.matches] for r in result.relevant}
        assert hosts["drupal_restful_web_service"] == ["web_server"]
        assert hosts["apache_couchdb_arbitrary_command_execution"] == ["db_server"]
        assert hosts["linux_kernel_udp_fragmentation_offset_ufo_pe"] == ["db_server"]

    def test_unmatched_product_discarded(self, motivating_network):
        matrix = _catalog_records(
            _record("smb_exploit", "RCE_TCP_N_H",
                    "cpe:2.3:a:microsoft:smb_server:1.0:*:*:*:*:*:*:*"),
        )
        result = select_relevant_exploits(motivating_network, matrix)
        assert result.relevant == ()
        assert result.discarded_count == 1

    def test_rce_requires_listener_pe_does_not(self, motivating_network):
        # php is installed on web_server but not listening
        php = "cpe:2.3:a:php:php:7.0.33:*:*:*:*:*:*:*"
        matrix = _catalog_records(
            _record("php_rce", "RCE_TCP_N_L", php),
            _record("php_pe", "PE_L_H", php),
        )
        result = select_relevant_exploits(motivating_network, matrix)
        assert result.ids == ("php_pe",)
        assert result.discarded_count == 1

    def test_protocol_must_match_listener(self, motivating_network):
        drupal = "cpe:2.3:a:drupal:drupal:8.6.9:*:*:*:*:*:*:*"
        matrix = _catalog_records(_record("drupal_udp", "RCE_UDP_N_L", drupal))
        result = select_relevant_exploits(motivating_network, matrix)
        assert result.relevant == ()

    def test_partition(self, motivating_network, motivating_matrix):
        result = select_relevant_exploits(motivating_network, motivating_matrix)
        assert len(result.relevant) + result.discarded_count == len(motivating_matrix)

    def test_adding_product_never_shrinks(self):
        for seed in range(20):
            net, matrix = fixture_pair(seed)
            before = set(select_relevant_exploits(net, matrix).ids)
            data = json.loads(json.dumps({
                "name": net.name,
                "subnets": list(net.subnets),
                "hosts": [
                    {
                        "name": h.name,
                        "subnets": list(h.subnets),
                        "products": [
                            {"cpe": str(p.cpe),
                             "tcp_listen": p in h.tcp_listen,
                             "udp_listen": p in h.udp_listen}
                            for p in h.products
                        ],
                    }
                    for h in net.hosts
                ],
                "trusted_channels": [list(c) for c in net.trusted_channels],
                "scenario": {"attacker_host": net.scenario.attacker_host,
                             "goal_host": net.scenario.goal_host},
            }))
            data["hosts"][-1]["products"].append(
                {"cpe": "cpe:2.3:a:acme:webd:1.0.0:*:*:*:*:*:*:*", "tcp_listen": True})
            grown = network_from_dict(data)
            after = set(select_relevant_exploits(grown, matrix).ids)
            assert before <= after


class TestReachability:
    def test_from_attacker(self, motivating_network):
        out = reachable_products(motivating_network, "attacker_host")
        assert [(h, p.token, proto) for h, p, proto in out] == [
            ("web_server", "a--drupal--drupal", Protocol.TCP),
        ]

    def test_from_web_server(self, motivating_network):
        out = reachable_products(motivating_network, "web_server")
        assert ("db_server", "a--apache--couchdb", Protocol.TCP) in [
            (h, p.token, proto) for h, p, proto in out
        ]

    def test_unknown_host(self, motivating_network):
        with pytest.raises(UnknownHost):
            reachable_products(motivating_network, "ghost")

    def test_isolated_host_sees_nothing(self):
        data = _motivating_dict()
        data["subnets"].append("island")
        data["hosts"].append({"name": "loner", "subnets": ["island"], "products": []})
        net = network_from_dict(data)
        assert reachable_products(net, "loner") == []

    def test_trusted_channel_extends_reach(self):
        data = _motivating_dict()
        # attacker cannot normally reach db_server (different subnet)
        base = network_from_dict(data)
        before = reachable_products(base, "attacker_host")
        data["trusted_channels"] = [["attacker_host", "db_server"]]
        net = network_from_dict(data)
        after = reachable_products(net, "attacker_host")
        assert set(before) <= set(after)
        assert ("db_server", net.host("db_server").tcp_listen[0], Protocol.TCP) in after

    def test_symmetric_subnet_visibility(self, motivating_network):
        # web and db share lan: each sees the other's listeners
        web_view = {(h, p.token) for h, p, _ in
                    reachable_products(motivating_network, "web_server")}
        db_view = {(h, p.token) for h, p, _ in
                   reachable_products(motivating_network, "db_server")}
        assert ("db_server", "a--apache--couchdb") in web_view
        assert ("web_server", "a--drupal--drupal") in db_view
