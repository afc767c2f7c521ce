"""Joint induction of lexical and structural neg-raising properties.

Fits a probabilistic relaxation of a boolean tensor factorization to
graded neg-raising and acceptability judgments, selects the latent
dimensionality by constrained cross-validation, and reports the induced
properties and per-verb scores.
"""

from .dataset import (
    FRAME_LABELS,
    SUBJECT_LABELS,
    TENSE_LABELS,
    PlantedFactors,
    PlantedSpec,
    ResponseTable,
    generate_synthetic,
    load_csv,
    sample_participant_effects,
    summarize,
    write_csv,
)
from .errors import (
    CapacityError,
    ConsistencyError,
    CoverageError,
    DimensionError,
    FitError,
    NegfactorError,
    PairingError,
    RowError,
    SchemaError,
)
from .evaluation import (
    ComparisonRecord,
    EvalReport,
    FoldAssignment,
    GridPointResult,
    assign_folds,
    bootstrap_compare,
    cross_validate,
)
from .factorization import (
    FactorParams,
    FactorProbs,
    Hyperparams,
    enumeration_oracle,
    forward_negraising,
    negraising_grid,
)
from .model import FittedModel
from .normalization import NormalizedScores, normalize
from .optim import (
    FitConfig,
    FitResult,
    Gradient,
    adam_minimize,
    evaluate,
    evaluate_per_cell,
    fit,
    gradient,
)
from .report import AnalysisBundle, analyze, rank_verbs, write_analysis
from .response import (
    AcceptabilityCells,
    EffectsParams,
    kl_loss,
    predict_acceptability,
    predict_negraising,
    prior_penalty,
    total_loss,
)

__version__ = "0.1.0"
