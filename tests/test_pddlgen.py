import re

import pytest

from chainplan import (
    ExploitMatrix,
    network_from_dict,
    parse_cpe,
    records_from_dict,
    select_relevant_exploits,
)
from chainplan.pddlgen import (
    ActionSchema,
    Atom,
    CONNECT_ACTIONS,
    PlanStep,
    emit_domain,
    emit_problem,
    parse_pddl,
    parse_plan,
    resolve_exploit_action,
    sanitize_action_name,
    sanitize_product,
    to_pddl,
)
from chainplan.errors import (
    EmptyDomain,
    PddlSyntaxError,
    UnknownExploit,
    UnsupportedFeature,
)
from chainplan.synth import purdue_fixture

from conftest import build_task

PDDL_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_-]*")


class TestIdentifiers:
    @pytest.mark.parametrize("uri,expected", [
        ("cpe:2.3:o:canonical:ubuntu_linux:16.04:*:*:*:*:*:*:*",
         "o--canonical--ubuntu_linux"),
        ("cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*", "a--apache--couchdb"),
        ("cpe:2.3:a:7t:igss:1.0.0:*:*:*:*:*:*:*", "a--7t--igss"),
    ])
    def test_sanitize_product(self, uri, expected):
        token = sanitize_product(parse_cpe(uri))
        assert token == expected
        assert PDDL_NAME_RE.fullmatch(token)

    def test_weird_characters_become_underscores(self):
        token = sanitize_product(parse_cpe(
            "cpe:2.3:a:big$corp:weird.product:1.0:*:*:*:*:*:*:*"))
        assert token == "a--big_corp--weird_product"
        assert PDDL_NAME_RE.fullmatch(token)

    def test_action_name(self):
        assert sanitize_action_name("Drupal RESTful (web)") == "drupal_restful__web_"
        assert sanitize_action_name("7zip_thing")[0].isalpha()


class TestEmitProblem:
    def test_listing_atoms_present(self, motivating_network):
        problem = emit_problem(motivating_network)
        init = {a.render() for a in problem.init}
        expected = {
            "(is_compromised attacker_host agent ROOT_PRIVILEGES)",
            "(connected_to_network attacker_host dmz)",
            "(connected_to_network web_server dmz)",
            "(connected_to_network web_server lan)",
            "(connected_to_network db_server lan)",
            "(has_product web_server o--canonical--ubuntu_linux)",
            "(has_version web_server o--canonical--ubuntu_linux ma16 mi4 pa0)",
            "(has_product web_server a--drupal--drupal)",
            "(has_version web_server a--drupal--drupal ma8 mi6 pa9)",
            "(TCP_listen web_server a--drupal--drupal)",
            "(has_product web_server a--php--php)",
            "(has_version web_server a--php--php ma7 mi0 pa33)",
            "(has_product db_server o--linux--linux_kernel)",
            "(has_version db_server o--linux--linux_kernel ma4 mi8 pa0)",
            "(has_product db_server a--apache--couchdb)",
            "(has_version db_server a--apache--couchdb ma2 mi0 pa0)",
            "(TCP_listen db_server a--apache--couchdb)",
        }
        assert expected <= init
        assert problem.goal == (
            Atom("is_compromised", ("db_server", "agent", "ROOT_PRIVILEGES")),)

    def test_objects_cover_privileges_and_versions(self, motivating_network):
        problem = emit_problem(motivating_network)
        objects = dict(problem.objects)
        for name in ("NONE_PRIVILEGES", "LOW_PRIVILEGES",
                     "HIGH_PRIVILEGES", "ROOT_PRIVILEGES"):
            assert objects[name] == "privilege"
        assert objects["ma16"] == "major"
        assert objects["mi8"] == "minor"
        assert objects["pa33"] == "patch"
        assert objects["agent"] == "agent"

    def test_no_trusted_channel_atoms_when_absent(self, motivating_network):
        problem = emit_problem(motivating_network)
        assert not [a for a in problem.init if a.name == "trusted_channel"]

    def test_trusted_channel_atoms_when_present(self):
        net_dict, _ = purdue_fixture(hosts=21)
        problem = emit_problem(network_from_dict(net_dict))
        assert Atom("trusted_channel", ("web_server2", "data1")) in problem.init

    def test_wildcard_versions_skip_has_version(self):
        net = network_from_dict({
            "subnets": ["z"],
            "hosts": [
                {"name": "a0", "subnets": ["z"], "products": []},
                {"name": "h1", "subnets": ["z"], "products": [
                    {"cpe": "cpe:2.3:o:microsoft:windows:*:*:*:*:*:*:*:*"}]},
            ],
            "scenario": {"attacker_host": "a0", "goal_host": "h1"},
        })
        problem = emit_problem(net)
        assert not [a for a in problem.init if a.name == "has_version"]
        assert Atom("has_product", ("h1", "o--microsoft--windows")) in problem.init

    def test_extra_attributes_emitted(self):
        net = network_from_dict({
            "subnets": ["z"],
            "hosts": [
                {"name": "a0", "subnets": ["z"], "products": []},
                {"name": "h1", "subnets": ["z"], "products": [
                    {"cpe": "cpe:2.3:a:v:p:1.0.0:sp1:*:en:*:*:*:*"}]},
            ],
            "scenario": {"attacker_host": "a0", "goal_host": "h1"},
        })
        problem = emit_problem(net)
        init = {a.render() for a in problem.init}
        assert "(has_update h1 a--v--p up-sp1)" in init
        assert "(has_language h1 a--v--p lang-en)" in init
        objects = dict(problem.objects)
        assert objects["up-sp1"] == "update"
        assert objects["lang-en"] == "language"


# Listing-style expected schema for the CouchDB exploit
EXPECTED_COUCHDB = ActionSchema(
    name="apache_couchdb_arbitrary_command_execution",
    parameters=(("?local_host", "host"), ("?remote_host", "host"),
                ("?agent", "agent")),
    precondition=(
        (
            Atom("is_compromised", ("?local_host", "?agent", "LOW_PRIVILEGES")),
            Atom("is_compromised", ("?local_host", "?agent", "HIGH_PRIVILEGES")),
            Atom("is_compromised", ("?local_host", "?agent", "ROOT_PRIVILEGES")),
        ),
        (Atom("TCP_connected", ("?local_host", "?remote_host", "a--apache--couchdb")),),
        (Atom("has_product", ("?remote_host", "a--apache--couchdb")),),
        (Atom("has_version", ("?remote_host", "a--apache--couchdb",
                              "ma2", "mi0", "pa0")),),
    ),
    effects=(Atom("is_compromised", ("?remote_host", "?agent", "HIGH_PRIVILEGES")),),
    record_id="apache_couchdb_arbitrary_command_execution",
)


class TestEmitDomain:
    def test_couchdb_schema_matches_expected(self, motivating_network,
                                             motivating_matrix):
        relevance = select_relevant_exploits(motivating_network, motivating_matrix)
        domain = emit_domain(relevance, motivating_matrix, motivating_network)
        by_name = {a.name: a for a in domain.actions}
        assert by_name["apache_couchdb_arbitrary_command_execution"] == EXPECTED_COUCHDB

    def test_pe_schema_span(self, motivating_network, motivating_matrix):
        relevance = select_relevant_exploits(motivating_network, motivating_matrix)
        domain = emit_domain(relevance, motivating_matrix, motivating_network)
        pe = {a.name: a for a in domain.actions}[
            "linux_kernel_udp_fragmentation_offset_ufo_pe"]
        assert pe.parameters == (("?host", "host"), ("?agent", "agent"))
        # PE_L_R: disjunction over LOW and HIGH only (never ROOT)
        assert pe.precondition[0] == (
            Atom("is_compromised", ("?host", "?agent", "LOW_PRIVILEGES")),
            Atom("is_compromised", ("?host", "?agent", "HIGH_PRIVILEGES")),
        )
        assert pe.effects == (
            Atom("is_compromised", ("?host", "?agent", "ROOT_PRIVILEGES")),)

    def test_authenticated_rce_gets_remote_clause(self, motivating_network):
        matrix = ExploitMatrix(tuple(records_from_dict({"records": [{
            "id": "drupal_admin_rce", "name": "x", "source": "other",
            "description": "d", "cves": [], "cvss_vectors": [],
            "vulnerable_configs": ["cpe:2.3:a:drupal:drupal:8.6.9:*:*:*:*:*:*:*"],
            "class": "RCE_TCP_H_R",
        }]})))
        relevance = select_relevant_exploits(motivating_network, matrix)
        domain = emit_domain(relevance, matrix, motivating_network)
        action = {a.name: a for a in domain.actions}["drupal_admin_rce"]
        # local foothold at >= required, remote privilege clause at >= required
        assert action.precondition[0] == (
            Atom("is_compromised", ("?local_host", "?agent", "HIGH_PRIVILEGES")),
            Atom("is_compromised", ("?local_host", "?agent", "ROOT_PRIVILEGES")),
        )
        assert action.precondition[2] == (
            Atom("is_compromised", ("?remote_host", "?agent", "HIGH_PRIVILEGES")),
            Atom("is_compromised", ("?remote_host", "?agent", "ROOT_PRIVILEGES")),
        )

    def test_wildcard_version_config_prunes_clause(self, motivating_network):
        matrix = ExploitMatrix(tuple(records_from_dict({"records": [{
            "id": "kernel_any_version", "name": "x", "source": "other",
            "description": "d", "cves": [], "cvss_vectors": [],
            "vulnerable_configs": ["cpe:2.3:o:linux:linux_kernel:*:*:*:*:*:*:*:*"],
            "class": "PE_L_R",
        }]})))
        relevance = select_relevant_exploits(motivating_network, matrix)
        domain = emit_domain(relevance, matrix, motivating_network)
        action = {a.name: a for a in domain.actions}["kernel_any_version"]
        assert not [c for c in action.precondition for a in c
                    if a.name == "has_version"]
        assert not [c for c in action.precondition for a in c
                    if a.name == "has_update"]

    def test_version_alternatives_become_disjunction(self):
        net = network_from_dict({
            "subnets": ["z"],
            "hosts": [
                {"name": "a0", "subnets": ["z"], "products": []},
                {"name": "h1", "subnets": ["z"], "products": [
                    {"cpe": "cpe:2.3:a:v:p:1.0.0:*:*:*:*:*:*:*", "tcp_listen": True}]},
                {"name": "h2", "subnets": ["z"], "products": [
                    {"cpe": "cpe:2.3:a:v:p:1.1.0:*:*:*:*:*:*:*", "tcp_listen": True}]},
            ],
            "scenario": {"attacker_host": "a0", "goal_host": "h2"},
        })
        matrix = ExploitMatrix(tuple(records_from_dict({"records": [{
            "id": "p_rce", "name": "x", "source": "other", "description": "d",
            "cves": [], "cvss_vectors": [],
            "vulnerable_configs": ["cpe:2.3:a:v:p:1.0.0:*:*:*:*:*:*:*",
                                   "cpe:2.3:a:v:p:1.1.0:*:*:*:*:*:*:*"],
            "class": "RCE_TCP_N_L",
        }]})))
        relevance = select_relevant_exploits(net, matrix)
        domain = emit_domain(relevance, matrix, net)
        action = {a.name: a for a in domain.actions}["p_rce"]
        version_clauses = [c for c in action.precondition
                           if any(a.name == "has_version" for a in c)]
        assert len(version_clauses) == 1
        assert {a.args[2:] for a in version_clauses[0]} == {
            ("ma1", "mi0", "pa0"), ("ma1", "mi1", "pa0")}

    def test_multi_product_exploit_splits_schemas(self):
        net = network_from_dict({
            "subnets": ["z"],
            "hosts": [
                {"name": "a0", "subnets": ["z"], "products": []},
                {"name": "h1", "subnets": ["z"], "products": [
                    {"cpe": "cpe:2.3:a:v:alpha:1.0.0:*:*:*:*:*:*:*",
                     "tcp_listen": True},
                    {"cpe": "cpe:2.3:a:v:beta:1.0.0:*:*:*:*:*:*:*",
                     "tcp_listen": True}]},
            ],
            "scenario": {"attacker_host": "a0", "goal_host": "h1"},
        })
        matrix = ExploitMatrix(tuple(records_from_dict({"records": [{
            "id": "dual", "name": "x", "source": "other", "description": "d",
            "cves": [], "cvss_vectors": [],
            "vulnerable_configs": ["cpe:2.3:a:v:alpha:1.0.0:*:*:*:*:*:*:*",
                                   "cpe:2.3:a:v:beta:1.0.0:*:*:*:*:*:*:*"],
            "class": "RCE_TCP_N_L",
        }]})))
        relevance = select_relevant_exploits(net, matrix)
        domain = emit_domain(relevance, matrix, net)
        exploits = sorted((a for a in domain.actions if a.name not in CONNECT_ACTIONS),
                          key=lambda a: a.name)
        assert [a.name for a in exploits] == ["dual__a--v--alpha", "dual__a--v--beta"]
        for schema in exploits:
            assert resolve_exploit_action(schema.record_id, matrix).id == "dual"

    def test_empty_domain(self, motivating_network, motivating_matrix):
        from chainplan.netmodel import RelevanceResult

        with pytest.raises(EmptyDomain):
            emit_domain(RelevanceResult(relevant=(), discarded_count=3),
                        motivating_matrix, motivating_network)

    def test_connect_schemas_present(self, motivating_network, motivating_matrix):
        relevance = select_relevant_exploits(motivating_network, motivating_matrix)
        domain = emit_domain(relevance, motivating_matrix, motivating_network)
        names = [a.name for a in domain.actions]
        for connect in ("tcp_connect", "tcp_connect_trusted",
                        "udp_connect", "udp_connect_trusted"):
            assert connect in names

    def test_effects_are_add_only_single_atoms(self, motivating_network,
                                               motivating_matrix):
        relevance = select_relevant_exploits(motivating_network, motivating_matrix)
        domain = emit_domain(relevance, motivating_matrix, motivating_network)
        for action in domain.actions:
            assert len(action.effects) >= 1
            for atom in action.effects:
                assert atom.name in ("is_compromised", "TCP_connected",
                                     "UDP_connected")

    def test_closed_world_constants(self, motivating_network, motivating_matrix):
        relevance = select_relevant_exploits(motivating_network, motivating_matrix)
        domain = emit_domain(relevance, motivating_matrix, motivating_network)
        problem = emit_problem(motivating_network)
        declared = {name for name, _ in problem.objects}
        declared_preds = {name for name, _ in domain.predicates}
        for action in domain.actions:
            for clause in action.precondition + (action.effects,):
                for atom in clause:
                    assert atom.name in declared_preds
                    for arg in atom.args:
                        if not arg.startswith("?"):
                            assert arg in declared, f"{atom} uses undeclared {arg}"

    def test_resolve_unknown(self, motivating_matrix):
        with pytest.raises(UnknownExploit):
            resolve_exploit_action("ghost_exploit", motivating_matrix)


class TestRoundTrip:
    def test_motivating_documents(self, motivating_network, motivating_matrix):
        domain, problem, _ = build_task(motivating_network, motivating_matrix)
        assert parse_pddl(to_pddl(domain)) == domain
        assert parse_pddl(to_pddl(problem)) == problem

    def test_purdue_documents(self):
        net_dict, cat_dict = purdue_fixture(hosts=21)
        net = network_from_dict(net_dict)
        matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
        domain, problem, _ = build_task(net, matrix)
        assert parse_pddl(to_pddl(domain)) == domain
        assert parse_pddl(to_pddl(problem)) == problem


class TestParser:
    def test_negative_precondition_unsupported(self):
        text = """(define (domain d)
          (:requirements :strips)
          (:predicates (p ?x - object))
          (:action a :parameters (?x - object)
            :precondition (not (p ?x))
            :effect (p ?x)))"""
        with pytest.raises(UnsupportedFeature):
            parse_pddl(text)

    def test_unknown_requirement(self):
        with pytest.raises(UnsupportedFeature):
            parse_pddl("(define (domain d) (:requirements :adl))")

    def test_functions_section_unsupported(self):
        with pytest.raises(UnsupportedFeature):
            parse_pddl("(define (domain d) (:functions (total-cost)))")

    def test_syntax_error_has_position(self):
        with pytest.raises(PddlSyntaxError) as err:
            parse_pddl("(define (domain d)\n  (:types a - ")
        assert err.value.line >= 1

    @pytest.mark.parametrize("text, message, line, column", [
        ("(define)", "missing (domain ...) or (problem ...) header", 1, 2),
        ("(define (domain d)\n  (:predicates (p)", "unbalanced parenthesis", 2, 3),
        ("(define (domain d)))", "trailing content after document", 1, 20),
        (")", "unexpected ')'", 1, 1),
        ("(define (domain d) (:action))", ":action needs a name", 1, 21),
        ("(define (domain d) (:action a :parameters x :effect (p)))",
         "expected a list in action a", 1, 43),
    ])
    def test_malformed_input_is_located(self, text, message, line, column):
        with pytest.raises(PddlSyntaxError) as err:
            parse_pddl(text)
        assert (str(err.value), err.value.line, err.value.column) \
            == (f"line {line}, column {column}: {message}", line, column)

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(PddlSyntaxError, match="must start with"):
            parse_pddl("(" * 5000 + ")" * 5000)
        with pytest.raises(PddlSyntaxError, match="unbalanced"):
            parse_pddl("(" * 5000)

    def test_trailing_garbage(self):
        with pytest.raises(PddlSyntaxError):
            parse_pddl("(define (domain d)) extra")

    def test_comments_ignored(self):
        doc = parse_pddl("; header comment\n(define (domain d) ; inline\n)")
        assert doc.kind == "domain"
        assert doc.name == "d"


class TestParsePlan:
    def test_bare_line_with_cost(self):
        plan = parse_plan(
            "tcp_connect dmz attacker_host web_server a--drupal--drupal agent (1)\n")
        assert plan.steps == (PlanStep(
            name="tcp_connect",
            args=("dmz", "attacker_host", "web_server", "a--drupal--drupal", "agent"),
            cost=1),)

    def test_parenthesized_format_with_cost_trailer(self):
        text = """; planner output
(tcp_connect dmz attacker_host web_server a--drupal--drupal agent)
(drupal_restful_web_service attacker_host web_server agent)
; cost = 2 (unit cost)
"""
        plan = parse_plan(text)
        assert len(plan.steps) == 2
        assert plan.total_cost == 2
        assert plan.steps[1].name == "drupal_restful_web_service"

    def test_step_order_preserved(self):
        plan = parse_plan("b x (1)\na y (1)\n")
        assert [s.name for s in plan.steps] == ["b", "a"]

    def test_zero_cost_rejected(self):
        with pytest.raises(PddlSyntaxError):
            parse_plan("a x (0)\n")

    def test_malformed_step(self):
        with pytest.raises(PddlSyntaxError):
            parse_plan("(a (b) c)\n")
