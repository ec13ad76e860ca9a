"""Numeric core: the flattened model program, its passes, and the trainer."""

from .program import (
    PROB_FLOOR,
    ModelProgram,
    backprop,
    compile_inputs,
    empty_net,
    eval_inputs,
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
from .trainer import FitResult, TrainConfig, active_backend, fit_program

__all__ = [
    "PROB_FLOOR", "ModelProgram", "backprop", "compile_inputs", "empty_net", "eval_inputs",
    "gradients", "input_gradients", "linear_utilities", "loss_gradients", "loss_value",
    "net_forward", "probabilities", "sample_nll", "single_nest", "utilities",
    "FitResult", "TrainConfig", "active_backend", "fit_program",
]
