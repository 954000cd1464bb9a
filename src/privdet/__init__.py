"""Design and audit of per-sensor randomized privacy mappings for
decentralized detection of a public hypothesis under inference- and
data-privacy constraints."""

from .channels import (
    NetworkMapping,
    SensorChannel,
    TwoStageMapping,
    identity_mapping,
    load_mapping,
    random_channel,
    random_mapping,
    randomized_response,
    save_mapping,
    uniform_mapping,
)
from .design import (
    DesignResult,
    OptimizerConfig,
    chain_designs,
    design_ill,
    design_info_stage,
    design_inp,
    design_ldp,
    design_lip,
    ldp_closed_form_step,
    ldp_lp_step,
)
from .detection import (
    FusionRule,
    PrivacyRiskProfile,
    compute_c_G,
    theta,
)
from .epic import (
    Dataset,
    EpicConfig,
    EpicSolution,
    dataset_from_model,
    discretize,
    eldp_solve,
    epic_solve,
    holdout_errors,
)
from .metrics import (
    BudgetReport,
    avg_info_leakage,
    delta_x,
    empirical_budgets,
    full_report,
    identifiability_budget,
    inference_dp_budget,
    info_privacy_budget,
    ldp_budget,
    mutual_info_privacy_budget,
    mutual_information,
)
from .model import (
    JointModel,
    PushedModel,
    generate_correlated_model,
    load_model,
    push_forward,
    push_forward_model,
    save_model,
    table3_model,
)
from .relations import (
    ImplicationWitness,
    check_bound_suite,
    example1_joint,
    witness_ai_not_info,
    witness_info_not_ldp,
    witness_mi_not_info,
)
from .simplex import solve_lp

__version__ = "0.1.0"
