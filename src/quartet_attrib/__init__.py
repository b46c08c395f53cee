"""Composer attribution for Haydn and Mozart string quartets.

Parses **kern scores into pitch/duration tracks, computes sonata-informed
global features, selects a feature subset by BIC-driven iterative
conditional minimization, fits a Cauchy-prior logistic regression and
evaluates it with leave-one-out / leave-one-quartet-out cross-validation.
"""

__version__ = "0.1.0"

from .score import (
    Composer,
    EncodedMovement,
    KernError,
    MalformedKern,
    MissingMeter,
    MovementMeta,
    Voice,
    VoiceTrack,
    WrongVoiceCount,
    load_corpus,
    parse_kern,
)
from .features import (
    DevelopmentThresholds,
    FeatureMatrix,
    FeatureName,
    SegmentConfig,
    extract_all,
    feature_names,
    near_zero_variance_filter,
)
from .glm import FittedModel, PriorConfig, bic, fit, hosmer_lemeshow, predict_prob, wald_pvalues
from .selection import SelectionResult, icm_select
from .evaluation import (
    CVConfig,
    CVResult,
    compare_runs,
    fit_full_model,
    run_cv,
    selection_stability,
    tune_cutoff,
)

__all__ = [
    "Composer",
    "CVConfig",
    "CVResult",
    "DevelopmentThresholds",
    "EncodedMovement",
    "FeatureMatrix",
    "FeatureName",
    "FittedModel",
    "KernError",
    "MalformedKern",
    "MissingMeter",
    "MovementMeta",
    "PriorConfig",
    "SegmentConfig",
    "SelectionResult",
    "Voice",
    "VoiceTrack",
    "WrongVoiceCount",
    "bic",
    "compare_runs",
    "extract_all",
    "feature_names",
    "fit",
    "fit_full_model",
    "hosmer_lemeshow",
    "icm_select",
    "load_corpus",
    "near_zero_variance_filter",
    "parse_kern",
    "predict_prob",
    "run_cv",
    "selection_stability",
    "tune_cutoff",
    "wald_pvalues",
]
