import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from chainplan import netmodel
from chainplan import (
    ExploitMatrix,
    Protocol,
    load_catalog,
    network_from_dict,
    records_from_dict,
    select_relevant_exploits,
)
from chainplan.errors import DanglingReference, SchemaError, UnknownHost
from chainplan.synth import dense_fixture, purdue_fixture

from conftest import FIXTURES, JSON_VALUES, fixture_pair, mutated_json, resolves
from oracles import naive_relevance, reachable_products


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

    def test_one_product_installed_twice(self):
        # h1's listening 1.1.0 is not vulnerable, but its listen fact and the
        # version fact of its idle 1.0.1 both name the token a--v--ssl, so a
        # 1.0.1 RCE would fire on h1; such a host is rejected
        data = {
            "subnets": ["z"],
            "hosts": [
                {"name": "a0", "subnets": ["z"], "products": []},
                {"name": "h1", "subnets": ["z"], "products": [
                    {"cpe": "cpe:2.3:a:v:ssl:1.0.1:*:*:*:*:*:*:*"},
                    {"cpe": "cpe:2.3:a:v:ssl:1.1.0:*:*:*:*:*:*:*", "tcp_listen": True}]},
                {"name": "h2", "subnets": ["z"], "products": [
                    {"cpe": "cpe:2.3:a:v:ssl:1.0.1:*:*:*:*:*:*:*", "tcp_listen": True}]},
            ],
            "scenario": {"attacker_host": "a0", "goal_host": "h1", "goal_privilege": "LOW"},
        }
        with pytest.raises(SchemaError) as err:
            network_from_dict(data)
        assert err.value.pointer == "/hosts/1/products/1"
        assert "installs a:v:ssl twice" in str(err.value)
        data["hosts"][1]["products"].pop(0)
        assert [p.token for p in network_from_dict(data).host("h1").tcp_listen] == [
            "a--v--ssl"]

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

    @pytest.mark.parametrize("edit, pointer", [
        (lambda d: d["hosts"][2].update(subnets=[]), "/hosts/2/subnets"),
        (lambda d: d["hosts"][2].update(subnets=["lan", "ghost"]), "/hosts/2/subnets/1"),
        (lambda d: d["hosts"][1].update(name="9web"), "/hosts/1/name"),
        (lambda d: d["hosts"][1].update(name="agent"), "/hosts/1/name"),
        (lambda d: d["hosts"][2].update(name="web_server"), "/hosts/2/name"),
        (lambda d: d["hosts"][2].update(name="lan"), "/hosts/2/name"),
        (lambda d: d.update(subnets=["dmz", "lan", "dmz"]), "/subnets/2"),
        (lambda d: d.update(subnets=["dmz", "lan", "bad name"]), "/subnets/2"),
        (lambda d: d.update(hosts=[]), "/hosts"),
        (lambda d: d["scenario"].update(goal_host="ghost"), "/scenario/goal_host"),
        (lambda d: d["scenario"].update(attacker_host="ghost"), "/scenario/attacker_host"),
        (lambda d: d["scenario"].update(goal_host="attacker_host"), "/scenario/goal_host"),
        (lambda d: d.update(trusted_channels=[["web_server", "ghost"]]),
         "/trusted_channels/0/1"),
        (lambda d: d.update(trusted_channels=[["db_server", "db_server"]]),
         "/trusted_channels/0"),
        (lambda d: d["hosts"][2].update(tcp_listen=["a--missing--product"]),
         "/hosts/2/tcp_listen/0"),
    ])
    def test_cross_reference_errors_carry_a_pointer(self, edit, pointer):
        data = _motivating_dict()
        edit(data)
        with pytest.raises(SchemaError) as err:
            network_from_dict(data)
        assert err.value.pointer == pointer
        assert str(err.value).startswith(f"{pointer}: ")

    def test_default_privileges(self, motivating_network):
        from chainplan import PrivilegeLevel

        assert motivating_network.scenario.attacker_privilege is PrivilegeLevel.ROOT
        assert motivating_network.scenario.goal_privilege is PrivilegeLevel.ROOT

    def test_each_distinct_cpe_is_parsed_once(self, monkeypatch):
        # purdue@400's 800 installed products are 25 distinct CPE strings
        calls = []
        parse = netmodel.parse_cpe
        monkeypatch.setattr(netmodel, "parse_cpe", lambda text: calls.append(text) or parse(text))
        net_dict, _ = purdue_fixture(hosts=400)
        net = network_from_dict(net_dict)
        assert sum(len(host.products) for host in net.hosts) == 800
        assert len(calls) == len(set(calls)) == 25
        for host, obj in zip(net.hosts, net_dict["hosts"], strict=True):
            assert [p.cpe for p in host.products] == [parse(p["cpe"]) for p in obj["products"]]

    @pytest.mark.parametrize("cpe", ["cpe:2.3:a:drupal",  # does not parse
                                     "cpe:2.3:a:*:drupal:8.6.9:*:*:*:*:*:*:*"])  # no vendor
    def test_a_bad_cpe_on_two_hosts_fails_where_it_first_appears(self, cpe):
        data = _motivating_dict()
        for host in data["hosts"][1:]:
            host["products"].insert(0, {"cpe": cpe})
        with pytest.raises(SchemaError) as err:
            network_from_dict(data)
        assert err.value.pointer == "/hosts/1/products/0/cpe"


_NAMES = ("ghost", "agent", "ROOT", "9x", "bad name", "", "attacker_host", "web_server",
          "db_server", "dmz", "lan", "a--drupal--drupal",
          "cpe:2.3:a:drupal:drupal:8.6.9:*:*:*:*:*:*:*", "cpe:2.3:a:*:*:*:*:*:*:*:*:*:*")


class TestLoadNetworkFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_network_is_accepted_or_located(self, data):
        doc = data.draw(mutated_json(_motivating_dict(), st.sampled_from(_NAMES) | JSON_VALUES))
        try:
            network_from_dict(doc)
        except SchemaError as exc:
            assert exc.pointer is not None and resolves(doc, exc.pointer), exc


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
        checked = 0
        for seed in range(20):
            net, matrix = fixture_pair(seed)
            # the loader rejects a host that installs one product twice
            if any((p.cpe.vendor, p.cpe.product) == ("acme", "webd")
                   for p in net.hosts[-1].products):
                continue
            checked += 1
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
        assert checked == 12


def _shared_cpes():
    """Hosts that share CPEs: drupal listens on TCP and gpsd on UDP, and the
    versions include a wildcard, an NA and a partial one (8.6.9a)."""
    def product(cpe, **listen):
        return {"cpe": f"cpe:2.3:{cpe}:*:*:*:*:*:*:*", **listen}

    drupal, gpsd = "a:drupal:drupal", "a:berlios:gpsd"
    kernel = "o:linux:linux_kernel:4.8.0"
    net = network_from_dict({
        "subnets": ["z"],
        "hosts": [
            {"name": "a0", "subnets": ["z"], "products": []},
            {"name": "h1", "subnets": ["z"], "products": [
                product(f"{drupal}:8.6.9", tcp_listen=True), product(kernel)]},
            {"name": "h2", "subnets": ["z"], "products": [
                product(kernel), product(f"{gpsd}:2.7.0", udp_listen=True),
                product(f"{drupal}:8.6.9", tcp_listen=True)]},
            {"name": "h3", "subnets": ["z"], "products": [
                product(f"{drupal}:8.6.9a", tcp_listen=True),
                product("o:linux:linux_kernel:*")]},
            {"name": "h4", "subnets": ["z"], "products": [
                product(f"{drupal}:-"), product(f"{gpsd}:2.7.0"),
                product("o:microsoft:windows:10.0.0")]},
            {"name": "h5", "subnets": ["z"], "products": [
                product(f"{gpsd}:*", udp_listen=True), product(kernel)]},
        ],
        "scenario": {"attacker_host": "a0", "goal_host": "h5"},
    })
    matrix = _catalog_records(
        _record("drupal_rce", "RCE_TCP_N_L", f"cpe:2.3:{drupal}:8.6.9:*:*:*:*:*:*:*"),
        _record("drupal_partial_rce", "RCE_TCP_N_H", f"cpe:2.3:{drupal}:8.6.9a:*:*:*:*:*:*:*"),
        _record("drupal_pe", "PE_L_R", f"cpe:2.3:{drupal}:*:*:*:*:*:*:*:*"),
        _record("gpsd_udp_rce", "RCE_UDP_N_R", f"cpe:2.3:{gpsd}:2.7.0:*:*:*:*:*:*:*"),
        _record("gpsd_tcp_rce", "RCE_TCP_N_L", f"cpe:2.3:{gpsd}:2.7.0:*:*:*:*:*:*:*"),
        _record("kernel_pe", "PE_L_R", f"cpe:2.3:{kernel}:*:*:*:*:*:*:*"),
        _record("windows_pe", "PE_L_H", "cpe:2.3:o:microsoft:windows:-:*:*:*:*:*:*:*"),
        _record("smb_rce", "RCE_TCP_N_H", "cpe:2.3:a:microsoft:smb_server:1.0:*:*:*:*:*:*:*"),
    )
    return net, matrix


def _pair(net_dict, cat_dict):
    return network_from_dict(net_dict), ExploitMatrix(tuple(records_from_dict(cat_dict)))


class TestRelevanceOracle:
    """Deciding a match once per distinct CPE gives what matching every
    candidate product of every host gives, ``matches`` order included."""

    @pytest.mark.parametrize("catalog", ["motivating_catalog.json",
                                         "motivating_catalog_bpf.json"])
    def test_motivating(self, motivating_network, catalog):
        matrix = load_catalog(FIXTURES / catalog)
        assert select_relevant_exploits(motivating_network, matrix) == \
            naive_relevance(motivating_network, matrix)

    @pytest.mark.parametrize("hosts", [21, 400])
    def test_purdue(self, hosts):
        net, matrix = _pair(*purdue_fixture(hosts=hosts))
        result = select_relevant_exploits(net, matrix)
        assert len(result.relevant) == len(matrix)
        assert result == naive_relevance(net, matrix)

    def test_random_and_dense(self):
        pairs = [fixture_pair(seed) for seed in range(40)] + [_pair(*dense_fixture(6))]
        for net, matrix in pairs:
            assert select_relevant_exploits(net, matrix) == naive_relevance(net, matrix), \
                net.name

    def test_shared_cpes(self):
        net, matrix = _shared_cpes()
        result = select_relevant_exploits(net, matrix)
        assert result == naive_relevance(net, matrix)
        hosts = {r.exploit_id: [h for h, _ in r.matches] for r in result.relevant}
        assert hosts == {
            # 8.6.9a is (8, 6, *): each config matches the other version
            "drupal_rce": ["h1", "h2", "h3"],
            "drupal_partial_rce": ["h1", "h2", "h3"],
            # h4's NA version is a wildcard; PE needs no listener
            "drupal_pe": ["h1", "h2", "h3", "h4"],
            # h4's gpsd does not listen
            "gpsd_udp_rce": ["h2", "h5"],
            "kernel_pe": ["h1", "h2", "h3", "h5"],
            "windows_pe": ["h4"],
        }
        assert result.discarded_count == 2


class TestReachability:
    """The network oracle's view of which listeners a host can reach."""

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
