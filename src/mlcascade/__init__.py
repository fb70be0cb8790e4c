"""Multi-label classification with classifier chains over synthetic labels."""

from .data import (
    Dataset,
    StandardizationParams,
    SynthNetSpec,
    apply_standardizer,
    fit_standardizer,
    gen_logical,
    gen_synthetic,
    load_csv,
    save_csv,
    shuffle_labels,
    shuffle_split,
)
from .evaluate import (
    ExperimentReport,
    equivalence_oracle,
    exact_match,
    hamming_score,
    run_experiment,
)
from .logistic import (
    LinearModel,
    TrainConfig,
    cross_entropy,
    cross_entropy_grad,
    sigmoid,
    train_logistic,
)
from .methods import (
    METHOD_NAMES,
    CCASLAMLModel,
    CCASLModel,
    ELMBRModel,
    MethodConfig,
    load_model,
    save_model,
    train_ccasl,
    train_ccasl_aml,
    train_ccasl_br,
    train_elm_br,
    train_method,
)
from .synth import (
    LabelIndicatorSet,
    RandomProjection,
    TLUCascade,
    apply_cascade,
    apply_indicators,
    apply_projection,
    init_cascade,
    init_projection,
    sample_indicators,
)
from .transforms import (
    BRModel,
    CCModel,
    StackedModel,
    train_br,
    train_cc,
    train_stack,
)

__version__ = "0.1.0"
