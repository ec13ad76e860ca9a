"""Numeric core: elementary ops, the flattened model program, fused trainers."""

from .backend import ENV_VAR, active_backend, fit_program, numba_available
from .fused_numpy import FitResult
from .ops import (
    IDENTITY,
    PROB_FLOOR,
    RELU,
    AdamState,
    DenseLayer,
    TrainConfig,
    adam_step,
    cross_entropy,
    dense_forward,
    dropout_mask,
    glorot_uniform,
    softmax,
)
from .program import (
    ModelProgram,
    backprop,
    empty_net,
    frozen_net_beta_gradient,
    gradients,
    input_gradients,
    linear_utilities,
    loss_gradients,
    loss_value,
    net_forward,
    probabilities,
    sample_nll,
    single_nest,
    utilities,
)

__all__ = [
    "ENV_VAR", "active_backend", "fit_program", "numba_available", "FitResult",
    "IDENTITY", "PROB_FLOOR", "RELU", "AdamState", "DenseLayer", "TrainConfig",
    "adam_step", "cross_entropy", "dense_forward", "dropout_mask",
    "glorot_uniform", "softmax",
    "ModelProgram", "backprop", "empty_net", "frozen_net_beta_gradient",
    "gradients", "input_gradients",
    "linear_utilities", "loss_gradients", "loss_value", "net_forward",
    "probabilities", "sample_nll", "single_nest", "utilities",
]
