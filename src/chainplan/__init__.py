"""chainplan: discovers multi-step PE/RCE exploit chains in declared networks.

Pipeline: classify exploits into the 15-class taxonomy, select the exploits
relevant to a network, compile everything into a delete-free planning task
(optionally serialized as PDDL), and enumerate the top-K distinct chains.
"""

from .catalog import (
    ANY,
    NA,
    Cpe,
    ExploitClass,
    ExploitMatrix,
    ExploitRecord,
    ExploitType,
    PrivilegeLevel,
    Protocol,
    VersionTriple,
    Wildcard,
    all_classes,
    class_name,
    cpe_matches,
    cpe_to_string,
    load_catalog,
    load_records,
    parse_class_name,
    parse_cpe,
    records_from_dict,
    save_records,
    split_version,
)
from .classifier import (
    ClassificationOutcome,
    CvssVector,
    EvalReport,
    HttpLlmEndpoint,
    PromptBundle,
    build_prompt,
    classify_llm,
    default_few_shots,
    evaluate,
    extract_required_privilege,
    parse_cvss,
)
from .netmodel import (
    Host,
    NetworkSpec,
    ProductInstance,
    RelevanceResult,
    Scenario,
    load_network,
    network_from_dict,
    reachable_products,
    select_relevant_exploits,
)
from .pddlgen import (
    ActionSchema,
    Atom,
    PddlDocument,
    PlanFile,
    PlanStep,
    emit_domain,
    emit_problem,
    parse_pddl,
    parse_plan,
    sanitize_product,
    to_pddl,
)
from .planner import (
    ExternalPlannerConfig,
    GroundAction,
    Plan,
    PlanningTask,
    apply,
    check_plan,
    exploit_key,
    find_plan,
    find_top_k,
    ground,
    is_applicable,
    run_external,
)
from .analysis import (
    ChainReport,
    SensitivityResult,
    SweepResult,
    compile_network,
    find_chains,
    privilege_sensitivity,
    sweep_targets,
    timing_harness,
    to_chain_report,
    transform_matrix,
)
from .synth import purdue_fixture, random_fixture

__version__ = "0.1.0"
