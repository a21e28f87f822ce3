"""Off-diagonal Hessian penalties for disentangling small generative models.

The toolkit centers on an unbiased stochastic estimator of the sum of
squared off-diagonal Hessian entries of a black-box function, built from
Rademacher probes and central second differences. Around it: exact
enumeration and finite-difference oracles, a minimal reverse-mode tensor
engine, toy generator/discriminator networks with activation taps,
penalty-regularized trainers, unsupervised latent-direction discovery,
and disentanglement metrics on procedural synthetic datasets.
"""

from .autodiff import (
    GradientCheckReport,
    Parameter,
    Tensor,
    backward,
    gradient_check,
    no_grad,
)
from .data import Dataset, Factor, FactorSpec, dataset_spec, render, sample_dataset
from .errors import ContractViolation, DegeneracyError, NumericError, ToolkitError
from .functions import FUNCTION_NAMES, get_function, gram_schmidt
from .metrics import PPLConfig, PPLResult, activeness, activeness_profile, ppl, slerp
from .nets import Discriminator, Generator, load_checkpoint, save_checkpoint
from .oracle import (
    DiagonalityReport,
    diagonality_metrics,
    enumerate_variance,
    exact_hessian_fd,
    export_hessian_heatmaps,
    hessian_sets_for,
)
from .penalty import (
    PenaltyConfig,
    PenaltyValue,
    exact_offdiag_penalty,
    hessian_penalty_estimate,
    sample_rademacher,
    second_directional_fd,
)
from .training import (
    Adam,
    DirectionMatrix,
    TrainConfig,
    TrainLog,
    TrainResult,
    Trainer,
    discover_directions,
    signed_permutation_score,
    train,
    warmup_weight,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ContractViolation",
    "Dataset",
    "DegeneracyError",
    "DiagonalityReport",
    "DirectionMatrix",
    "Discriminator",
    "Factor",
    "FactorSpec",
    "FUNCTION_NAMES",
    "Generator",
    "GradientCheckReport",
    "NumericError",
    "PPLConfig",
    "PPLResult",
    "Parameter",
    "PenaltyConfig",
    "PenaltyValue",
    "Tensor",
    "ToolkitError",
    "TrainConfig",
    "TrainLog",
    "TrainResult",
    "Trainer",
    "activeness",
    "activeness_profile",
    "backward",
    "dataset_spec",
    "diagonality_metrics",
    "discover_directions",
    "enumerate_variance",
    "exact_hessian_fd",
    "exact_offdiag_penalty",
    "export_hessian_heatmaps",
    "get_function",
    "gradient_check",
    "gram_schmidt",
    "hessian_penalty_estimate",
    "hessian_sets_for",
    "load_checkpoint",
    "no_grad",
    "ppl",
    "render",
    "sample_dataset",
    "sample_rademacher",
    "save_checkpoint",
    "second_directional_fd",
    "signed_permutation_score",
    "slerp",
    "train",
    "warmup_weight",
]
