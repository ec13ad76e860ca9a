"""Discrete choice models with a learned utility representation term.

Linear-in-parameters utilities keep their econometric reading; a dense net
over a disjoint set of columns soaks up the rest of the systematic utility.
"""

from .analysis import (
    ModelRecipe,
    binary_zoo,
    correlation_bias_sweep,
    correlation_zoo,
    feature_impact,
    guevara_zoo,
    monte_carlo,
    neuron_scan,
    semi_synth_zoo,
    semi_synthetic_study,
    sensitivity_sweep,
    strategy_compare,
)
from .dataio import (
    ChoiceDataset,
    CsvSchema,
    DataError,
    correlation_matrix,
    generic_schema,
    load_csv,
    optima_schema,
    preprocess_optima,
    preprocess_swissmetro,
    save_truth,
    split,
    swissmetro_schema,
    validate_partition,
)
from .estimation import (
    BETA_THEN_NET,
    NET_THEN_BETA,
    EstimationReport,
    fit_joint,
    fit_sequential,
    hessian_std_errors,
    mcfadden_rho2,
    null_log_likelihood,
    parameter_ratio,
    ratio_t_test,
    relative_errors,
    t_test,
)
from .models import (
    HybridChoiceModel,
    NestStructure,
    RepresentationNet,
    UtilitySpec,
    UtilityTerm,
    build_model,
    load_model,
    predict_probabilities,
    save_model,
    systematic_utility,
)
from .numcore import TrainConfig, active_backend
from .synthgen import DataSpec, gen_semi_synthetic, sample_attribute_table

__version__ = "0.1.0"
