"""Chase procedures: classic set chase and the paper's sound bag / bag-set chase."""

from .assignment_fixing import (
    compare_with_key_based,
    is_assignment_fixing,
    is_assignment_fixing_for,
)
from .plans import EGDPlan, PlanCache, SigmaPlans, TGDPlan, default_plan_cache
from .delta import ChaseCapture, TriggerIndex
from .incremental import (
    ChaseCheckpoint,
    ChaseDelta,
    ResumeOutcome,
    chase_with_checkpoint,
    has_applicable_step,
    resume_chase,
)
from .profile import ChaseProfile
from .set_chase import ChaseResult, set_chase, set_chase_terminates
from .sigma_subset import (
    SigmaSubsetResult,
    max_bag_set_sigma_subset,
    max_bag_sigma_subset,
    scan_sigma_subset,
)
from .sound_chase import (
    bag_chase,
    bag_set_chase,
    chase,
    is_sound_chase_step,
    sound_chase,
)
from .steps import (
    ChaseFailedError,
    ChaseStepRecord,
    apply_egd_step,
    apply_tgd_step,
    is_egd_applicable,
    is_recorded_trigger_applicable,
    is_tgd_applicable,
    iter_applicable_egd_bindings,
    iter_applicable_egd_homomorphisms,
    iter_applicable_tgd_bindings,
    iter_applicable_tgd_homomorphisms,
    trigger_homomorphism,
)
from .test_query import AssociatedTestQuery, associated_test_query

__all__ = [
    "AssociatedTestQuery",
    "ChaseCapture",
    "ChaseCheckpoint",
    "ChaseDelta",
    "ChaseFailedError",
    "ChaseProfile",
    "ChaseResult",
    "ChaseStepRecord",
    "EGDPlan",
    "PlanCache",
    "ResumeOutcome",
    "SigmaPlans",
    "SigmaSubsetResult",
    "TGDPlan",
    "TriggerIndex",
    "apply_egd_step",
    "apply_tgd_step",
    "associated_test_query",
    "bag_chase",
    "bag_set_chase",
    "chase",
    "chase_with_checkpoint",
    "compare_with_key_based",
    "default_plan_cache",
    "has_applicable_step",
    "is_assignment_fixing",
    "is_assignment_fixing_for",
    "is_egd_applicable",
    "is_recorded_trigger_applicable",
    "is_sound_chase_step",
    "is_tgd_applicable",
    "iter_applicable_egd_bindings",
    "iter_applicable_egd_homomorphisms",
    "iter_applicable_tgd_bindings",
    "iter_applicable_tgd_homomorphisms",
    "trigger_homomorphism",
    "max_bag_set_sigma_subset",
    "max_bag_sigma_subset",
    "resume_chase",
    "scan_sigma_subset",
    "set_chase",
    "set_chase_terminates",
    "sound_chase",
]
