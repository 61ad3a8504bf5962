"""The paper's EPTAS for machine scheduling with bag-constraints (Theorem 1)."""

from .params import (
    ConstantsMode,
    DerivedConstants,
    EptasConfig,
    derive_constants,
    normalise_eps,
    theory_constants_report,
)
from .rounding import round_instance, round_up_to_power, scale_and_round
from .classification import (
    BagClasses,
    JobClasses,
    classify_bags,
    classify_jobs,
    compute_k,
)
from .transformation import (
    TransformationRecord,
    forward_transform_schedule,
    reinsert_medium_jobs,
    revert_to_original,
    transform_instance,
)
from .patterns import (
    JobTable,
    Pattern,
    PatternEntry,
    PatternSet,
    collect_entry_types,
    enumerate_patterns,
    group_jobs,
)
from .milp import (
    ConfigurationModel,
    ConfigurationSolution,
    build_configuration_milp,
    solve_configuration_milp,
)
from .large_jobs import LargePlacement, place_large_and_medium
from .small_jobs import SmallPlacementDiagnostics, place_small_jobs
from .repair import RepairDiagnostics, resolve_conflicts
from .driver import AttemptReport, eptas_schedule, solve_for_guess

__all__ = [
    "AttemptReport",
    "BagClasses",
    "ConfigurationModel",
    "ConfigurationSolution",
    "ConstantsMode",
    "DerivedConstants",
    "EptasConfig",
    "JobClasses",
    "JobTable",
    "LargePlacement",
    "Pattern",
    "PatternEntry",
    "PatternSet",
    "RepairDiagnostics",
    "SmallPlacementDiagnostics",
    "TransformationRecord",
    "build_configuration_milp",
    "classify_bags",
    "classify_jobs",
    "collect_entry_types",
    "compute_k",
    "derive_constants",
    "enumerate_patterns",
    "eptas_schedule",
    "forward_transform_schedule",
    "group_jobs",
    "normalise_eps",
    "place_large_and_medium",
    "place_small_jobs",
    "reinsert_medium_jobs",
    "resolve_conflicts",
    "revert_to_original",
    "round_instance",
    "round_up_to_power",
    "scale_and_round",
    "solve_configuration_milp",
    "solve_for_guess",
    "theory_constants_report",
    "transform_instance",
]
