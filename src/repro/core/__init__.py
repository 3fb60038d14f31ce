"""Core algorithms: templates, prototypes, constraint checking, pipeline."""

from .arraystate import (
    ArraySearchState,
    GraphCsr,
    array_kernel_fixpoint,
    csr_of,
)
from .batch import (
    BatchItemResult,
    BatchQuery,
    BatchResult,
    TemplateClass,
    TemplateFamily,
    TemplateLibrary,
    run_batch,
)
from .builder import TemplateBuilder
from .candidate_set import (
    CandidateSetMemo,
    max_candidate_arrays,
    max_candidate_set,
)
from .constraints import (
    ConstraintSet,
    NonLocalConstraint,
    cycle_constraints,
    full_walk_constraint,
    generate_constraints,
    is_edge_monocyclic,
    path_constraints,
    tds_constraints,
)
from .flips import (
    FlipResult,
    envelope_template,
    generate_flip_variants,
    run_flip_pipeline,
)
from .cost_estimation import (
    GraphStatistics,
    estimate_success_probability,
    estimate_walk_cost,
    order_constraints_by_cost,
    pruning_efficiency,
)
from .enumeration import (
    count_match_mappings,
    distinct_match_count,
    enumerate_matches,
    extend_from_child_matches,
)
from .kernels import (
    RoleKernel,
    cached_kernel,
    compile_kernel,
)
from .lcc import local_constraint_checking
from .memos import clear_memos, memo_stats
from .motifs import (
    MotifCounts,
    count_motifs,
    count_motifs_sequential,
    motif_prototypes,
    motif_template,
)
from .naive import naive_options, naive_search
from .nlcc import NlccResult, non_local_constraint_checking
from .output import (
    enumerate_all_matches,
    participation_rates,
    read_match_labels,
    union_of_all_matches,
    union_per_prototype,
    write_match_enumeration,
    write_match_labels,
    write_union_subgraph,
)
from .ordering import (
    ConstraintPlan,
    ConstraintPlanner,
    estimate_prototype_cost,
    order_constraints,
    parallel_makespan,
    schedule_prototypes,
)
from .patterns import (
    PAPER_PATTERNS,
    imdb1_template,
    rdt1_template,
    rmat1_template,
    wdc1_template,
    wdc2_template,
    wdc3_template,
    wdc4_template,
)
from .pipeline import PipelineOptions, run_pipeline
from .prototypes import ChildLink, Prototype, PrototypeSet, generate_prototypes
from .restart import resume_pipeline, run_pipeline_with_checkpoints
from .results import LevelReport, PipelineResult, PrototypeSearchOutcome
from .search import search_prototype
from .state import NlccCache, SearchState
from .template import PatternTemplate, clique_template, cycle_template, path_template
from .topdown import exploratory_search, first_match_condition, stopping_distance
from .wildcards import (
    WILDCARD,
    WildcardResult,
    has_wildcards,
    run_wildcard_pipeline,
    wildcard_vertices,
)

__all__ = [
    "ArraySearchState",
    "BatchItemResult",
    "BatchQuery",
    "BatchResult",
    "CandidateSetMemo",
    "ChildLink",
    "TemplateClass",
    "TemplateFamily",
    "TemplateLibrary",
    "PAPER_PATTERNS",
    "WILDCARD",
    "WildcardResult",
    "ConstraintPlan",
    "ConstraintPlanner",
    "ConstraintSet",
    "FlipResult",
    "GraphStatistics",
    "LevelReport",
    "MotifCounts",
    "NlccCache",
    "NlccResult",
    "NonLocalConstraint",
    "PatternTemplate",
    "PipelineOptions",
    "PipelineResult",
    "Prototype",
    "PrototypeSearchOutcome",
    "PrototypeSet",
    "RoleKernel",
    "SearchState",
    "TemplateBuilder",
    "GraphCsr",
    "array_kernel_fixpoint",
    "csr_of",
    "cached_kernel",
    "clique_template",
    "count_match_mappings",
    "count_motifs",
    "count_motifs_sequential",
    "cycle_constraints",
    "cycle_template",
    "distinct_match_count",
    "enumerate_all_matches",
    "enumerate_matches",
    "envelope_template",
    "estimate_prototype_cost",
    "estimate_success_probability",
    "estimate_walk_cost",
    "exploratory_search",
    "extend_from_child_matches",
    "first_match_condition",
    "full_walk_constraint",
    "generate_constraints",
    "generate_flip_variants",
    "generate_prototypes",
    "has_wildcards",
    "imdb1_template",
    "is_edge_monocyclic",
    "clear_memos",
    "compile_kernel",
    "run_batch",
    "local_constraint_checking",
    "max_candidate_arrays",
    "max_candidate_set",
    "memo_stats",
    "motif_prototypes",
    "motif_template",
    "naive_options",
    "naive_search",
    "non_local_constraint_checking",
    "order_constraints",
    "order_constraints_by_cost",
    "parallel_makespan",
    "participation_rates",
    "path_constraints",
    "pruning_efficiency",
    "path_template",
    "rdt1_template",
    "read_match_labels",
    "rmat1_template",
    "run_pipeline",
    "resume_pipeline",
    "run_flip_pipeline",
    "run_pipeline_with_checkpoints",
    "run_wildcard_pipeline",
    "schedule_prototypes",
    "search_prototype",
    "stopping_distance",
    "union_of_all_matches",
    "union_per_prototype",
    "wdc1_template",
    "wdc2_template",
    "wdc3_template",
    "wdc4_template",
    "tds_constraints",
    "wildcard_vertices",
    "write_match_enumeration",
    "write_match_labels",
    "write_union_subgraph",
]
