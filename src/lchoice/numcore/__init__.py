"""Numeric core: the flattened model program, its passes, and the trainer."""

from .program import (
    PROB_FLOOR,
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
)
from .trainer import FitResult, TrainConfig, active_backend, fit_program

__all__ = [
    "PROB_FLOOR", "ModelProgram", "backprop", "empty_net", "frozen_net_beta_gradient",
    "gradients", "input_gradients",
    "linear_utilities", "loss_gradients", "loss_value", "net_forward",
    "probabilities", "sample_nll", "single_nest",
    "FitResult", "TrainConfig", "active_backend", "fit_program",
]
