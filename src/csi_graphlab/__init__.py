"""Exact finite-category structural causal models with a context variable.

Models are finite categorical SCMs with one exogenous noise term per
variable and exact rational probabilities.  A designated context variable
splits the pooled distribution into regimes; the library computes every
regime-level graph object exactly (union, descriptive, physical,
counterfactual, and the ancestor-corrected audit graph), runs PC-style and
exhaustive skeleton discovery on exact or sampled data, classifies
per-context edge changes, bootstraps transfer evidence for mechanism
changes, and brute-force verifies the structural laws connecting all of
the above on built-in fixtures and random models.
"""

from .classify import ChangeReport, ClassifyError, EdgeChange, classify_changes
from .corpus import get_example, list_examples
from .data import DataError, Dataset
from .discovery import (
    DiscoveryError,
    ExactTester,
    MarkovReport,
    SampleTester,
    SeparationCertificate,
    detect_graph,
    discover,
    intersection_graph,
    markov_check,
    skeleton_masked,
    skeleton_pooled,
    union_from_contexts,
)
from .exact import (
    JointPmf,
    SolvedModel,
    SolveError,
    UnsolvableModelError,
    draw_samples,
    joint_pmf,
    solve_all,
)
from .graph_objects import (
    FaithfulnessReport,
    GraphObjectSet,
    check_R_faithfulness,
    check_strong_R_faithfulness,
    counterfactual_graph,
    descriptive_graph,
    ground_truth,
    ident_graph,
    is_strongly_regime_acyclic,
    is_weakly_regime_acyclic,
    mechanism_graph,
    physical_graph,
    support_reduction_witnesses,
    union_graph,
)
from .graphs import DirectedGraph, GraphError, UndirectedSkeleton, acyclify, d_separated
from .independence import (
    CiQuery,
    CiVerdict,
    IndependenceError,
    ci_exact,
    conditional_mutual_information,
    g_test,
)
from .laws import (
    CheckResult,
    DEFAULT_CHECKS,
    LawsError,
    RandomModelSpec,
    Requirements,
    SuiteSummary,
    random_scm,
    run_suite,
)
from .scm import (
    MechanismTable,
    NoiseSpec,
    Scm,
    ScmError,
    VariableSpec,
    intervene,
    load_scm,
    serialize_scm,
    validate_scm,
)
from .transfer import TransferConfig, TransferError, TransferVerdict, transfer_evidence

__all__ = [
    "ChangeReport",
    "ClassifyError",
    "EdgeChange",
    "classify_changes",
    "get_example",
    "list_examples",
    "DataError",
    "Dataset",
    "DiscoveryError",
    "ExactTester",
    "MarkovReport",
    "SampleTester",
    "SeparationCertificate",
    "detect_graph",
    "discover",
    "intersection_graph",
    "markov_check",
    "skeleton_masked",
    "skeleton_pooled",
    "union_from_contexts",
    "JointPmf",
    "SolvedModel",
    "SolveError",
    "UnsolvableModelError",
    "draw_samples",
    "joint_pmf",
    "solve_all",
    "FaithfulnessReport",
    "GraphObjectSet",
    "check_R_faithfulness",
    "check_strong_R_faithfulness",
    "counterfactual_graph",
    "descriptive_graph",
    "ground_truth",
    "ident_graph",
    "is_strongly_regime_acyclic",
    "is_weakly_regime_acyclic",
    "mechanism_graph",
    "physical_graph",
    "support_reduction_witnesses",
    "union_graph",
    "DirectedGraph",
    "GraphError",
    "UndirectedSkeleton",
    "acyclify",
    "d_separated",
    "CiQuery",
    "CiVerdict",
    "IndependenceError",
    "ci_exact",
    "conditional_mutual_information",
    "g_test",
    "CheckResult",
    "DEFAULT_CHECKS",
    "LawsError",
    "RandomModelSpec",
    "Requirements",
    "SuiteSummary",
    "random_scm",
    "run_suite",
    "MechanismTable",
    "NoiseSpec",
    "Scm",
    "ScmError",
    "VariableSpec",
    "intervene",
    "load_scm",
    "serialize_scm",
    "validate_scm",
    "TransferConfig",
    "TransferError",
    "TransferVerdict",
    "transfer_evidence",
]
