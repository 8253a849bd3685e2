"""Scaling check on a generated 200-host industrial network.

Replicated hosts run patched service versions, so the vulnerable surface
stays fixed while the network grows to two hundred hosts in six zones, and
grounding keeps only the actions the attacker can reach. Reported numbers
are wall-clock on whatever machine runs this.
"""
import time

from chainplan import (
    ExploitMatrix,
    find_plan,
    find_top_k,
    ground,
    network_from_dict,
    records_from_dict,
    select_relevant_exploits,
)
from chainplan.analysis import to_chain_report
from chainplan.pddlgen import CONNECT_ACTIONS, emit_domain, emit_problem
from chainplan.synth import purdue_fixture

net_dict, cat_dict = purdue_fixture(hosts=200)
net = network_from_dict(net_dict)
matrix = ExploitMatrix(tuple(records_from_dict(cat_dict)))
print(f"network: {len(net.hosts) - 1} hosts, {len(net.subnets)} subnets; "
      f"catalog: {len(matrix)} exploits")

t0 = time.perf_counter()
relevance = select_relevant_exploits(net, matrix)
domain = emit_domain(relevance, matrix, net)
problem = emit_problem(net)
t1 = time.perf_counter()
schemas = sum(1 for a in domain.actions if a.name not in CONNECT_ACTIONS)
print(f"modeling: {t1 - t0:.2f}s ({schemas} exploit schemas)")

task = ground(domain, problem)
t2 = time.perf_counter()
print(f"grounding: {t2 - t1:.2f}s ({len(task.actions)} ground actions)")

find_plan(task)
t3 = time.perf_counter()
print(f"first plan: {t3 - t2:.3f}s")

plans = find_top_k(task, 13)
t4 = time.perf_counter()
print(f"13-plan enumeration: {t4 - t3:.2f}s, lengths "
      f"{sorted(len(p.steps) for p in plans)}")

report = to_chain_report(plans[0], task, matrix)
print(f"\nshortest chain ({report.chain_length_exploits} exploits):")
for step in report.steps:
    if step.kind != "connect":
        print(f"  {step.exploit_id}: {step.to_host} -> {step.privilege_after.name}")
