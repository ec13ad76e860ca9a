"""Unit tests for the numeric core: PRNG, softmax and NLL, gradients, the trainer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fd_util import max_rel_error, numeric_gradients, random_instance
from lchoice import numcore
from lchoice.models import mnl_probabilities
from lchoice.numcore import (PROB_FLOOR, TrainConfig, fit_program, gradients,
                             input_gradients, loss_value, net_forward, sample_nll)
from lchoice.numcore import prng
from lchoice.numcore.program import forward


# ---------------------------------------------------------------------------
# counter-based PRNG

def test_uniforms_are_counter_addressed():
    whole = prng.uniforms(42, 0, 10)
    tail = prng.uniforms(42, 5, 5)
    np.testing.assert_array_equal(whole[5:], tail)


def test_uniforms_range_and_determinism():
    u = prng.uniforms(7, 0, 10000)
    assert ((u >= 0.0) & (u < 1.0)).all()
    np.testing.assert_array_equal(u, prng.uniforms(7, 0, 10000))
    # crude uniformity: mean near 1/2, no mass collapse
    assert abs(u.mean() - 0.5) < 0.01
    assert np.unique(u).size == u.size


def test_derived_streams_are_decorrelated():
    a = prng.uniforms(prng.derive_seed(0, 1), 0, 1000)
    b = prng.uniforms(prng.derive_seed(0, 2), 0, 1000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


@given(seed=st.integers(0, 2**63 - 1), start=st.integers(0, 1000),
       n=st.integers(1, 50))
@settings(max_examples=50, deadline=None)
def test_counter_addressing_property(seed, start, n):
    block = prng.uniforms(seed, start, n)
    singles = np.array([prng.uniforms(seed, start + i, 1)[0] for i in range(n)])
    np.testing.assert_array_equal(block, singles)


# ---------------------------------------------------------------------------
# softmax / cross entropy

def test_softmax_two_thirds_one_third():
    # e^ln2 / (e^ln2 + e^0) = 2/3
    p = mnl_probabilities(np.array([math.log(2.0), 0.0]))
    np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)


def test_softmax_masks_unavailable_to_exact_zero():
    p = mnl_probabilities(np.array([[5.0, 1.0, 3.0]]), np.array([[1.0, 0.0, 1.0]]))
    assert p[0, 1] == 0.0
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-15)
    # renormalises over the available pair
    expect = np.exp([5.0, 3.0]) / np.exp([5.0, 3.0]).sum()
    np.testing.assert_allclose(p[0, [0, 2]], expect, atol=1e-15)


def test_softmax_shift_invariance_and_1d_parity():
    v = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(mnl_probabilities(v), mnl_probabilities(v + 123.4), atol=1e-15)
    np.testing.assert_array_equal(mnl_probabilities(v), mnl_probabilities(v[None, :])[0])


def test_softmax_rejects_fully_unavailable_row():
    with pytest.raises(ValueError, match="no available"):
        mnl_probabilities(np.zeros((1, 3)), np.zeros((1, 3)))


def test_cross_entropy_uniform_is_log_n():
    # the mean per-row NLL is the cross entropy
    p = np.full((4, 3), 1.0 / 3.0)
    assert sample_nll(p, np.array([0, 1, 2, 0])).mean() == pytest.approx(math.log(3.0), abs=1e-15)


def test_cross_entropy_floors_zero_probability():
    p = np.array([[1.0, 0.0]])
    assert sample_nll(p, np.array([1]))[0] == -math.log(PROB_FLOOR)


# ---------------------------------------------------------------------------
# init

def test_glorot_bounds_and_determinism():
    w = prng.glorot_uniform(30, 20, seed=4)
    limit = math.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert np.abs(w).max() <= limit
    np.testing.assert_array_equal(w, prng.glorot_uniform(30, 20, seed=4))


# ---------------------------------------------------------------------------
# Adam

def test_train_config_validation():
    for bad in (dict(epochs=-1), dict(batch_size=0), dict(dropout=1.0), dict(l2=-0.5),
                dict(learning_rate=-0.01), dict(learning_rate=0.0),
                dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
                dict(beta1=1.0), dict(beta2=1.0), dict(beta1=-0.1),
                dict(eps=0.0), dict(eps=float("nan")),
                dict(epochs=2.5), dict(epochs=True), dict(batch_size=50.0),
                dict(batch_size="50"), dict(seed=1.5), dict(seed=None)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    ok = TrainConfig(epochs=np.int64(3), batch_size=np.int32(10), seed=np.uint64(7))
    assert ok.epochs == 3 and ok.batch_size == 10 and ok.seed == 7


def _logit_instance(seed=3):
    """Three coefficients over 40 rows and 3 alternatives, no net, no nests."""
    from lchoice.numcore.program import ModelProgram, empty_net, single_nest
    rng = np.random.default_rng(seed)
    n, n_alts = 40, 3
    prog = ModelProgram(n_alts, 3, np.array([0, 1, 2], dtype=np.int64),
                        np.array([0, 1, 2], dtype=np.int64), np.array([0, 1, 2], dtype=np.int64),
                        rng.normal(0, 0.5, 3), np.zeros(0, np.int64), *empty_net(n_alts),
                        *single_nest(n_alts), False)
    data = rng.normal(0, 1, (n, 3))
    return prog, data, np.ones((n, n_alts)), rng.integers(0, n_alts, n).astype(np.int64)


def test_adam_first_step_is_learning_rate_sized():
    prog, data, avail, choice = _logit_instance()
    beta0 = prog.beta.copy()
    g = gradients(prog, data, avail, choice)["beta"]
    # one full batch: the bias-corrected first step is lr * g / (|g| + eps) ~ lr * sign(g)
    fit_program(prog, data, avail, choice, TrainConfig(epochs=1, batch_size=1000,
                                                       learning_rate=0.01))
    np.testing.assert_allclose(prog.beta, beta0 - 0.01 * np.sign(g), rtol=0, atol=1e-5)


def test_adam_matches_reference_updates():
    # full-batch steps of the trainer against Adam written from the formula
    prog, data, avail, choice = _logit_instance()
    beta0 = prog.beta.copy()
    cfg = TrainConfig(epochs=5, batch_size=1000, learning_rate=0.05)
    lr, b1, b2, eps = cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps
    ref = beta0.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    for t in range(1, 6):
        prog.beta[...] = ref
        g = gradients(prog, data, avail, choice)["beta"]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    prog.beta[...] = beta0
    fit_program(prog, data, avail, choice, cfg)
    np.testing.assert_allclose(prog.beta, ref, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# analytic gradients vs finite differences

@pytest.mark.parametrize("with_net,with_nests", [(False, False), (True, False),
                                                 (False, True), (True, True)])
def test_gradients_match_finite_differences(with_net, with_nests):
    rng = np.random.default_rng(100 + 2 * with_net + with_nests)
    for _ in range(4):
        prog, data, avail, choice = random_instance(rng, with_net, with_nests)
        g = gradients(prog, data, avail, choice)
        fd = numeric_gradients(prog, data, avail, choice)
        assert max_rel_error(g, fd) < 1e-4


def test_l2_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    prog, data, avail, choice = random_instance(rng, with_net=True, with_nests=False)
    g = gradients(prog, data, avail, choice, l2=0.05)
    fd = numeric_gradients(prog, data, avail, choice, l2=0.05)
    assert max_rel_error(g, fd) < 1e-4


def test_l2_penalty_adds_exactly():
    rng = np.random.default_rng(56)
    prog, data, avail, choice = random_instance(rng, with_net=True, with_nests=False)
    base = loss_value(prog, data, avail, choice, l2=0.0)
    ssq = float((prog.w_in ** 2).sum() + (prog.w_hidden ** 2).sum() + (prog.w_out ** 2).sum())
    with_l2 = loss_value(prog, data, avail, choice, l2=0.3)
    assert with_l2 == pytest.approx(base + 0.3 * ssq, rel=1e-12)


@given(seed=st.integers(0, 10_000))
@example(seed=356)  # beta gradient of ~-2e-17, all finite-difference rounding
@settings(max_examples=20, deadline=None)
def test_gradient_property_random_shapes(seed):
    rng = np.random.default_rng(seed)
    prog, data, avail, choice = random_instance(
        rng, with_net=bool(rng.integers(2)), with_nests=bool(rng.integers(2)))
    g = gradients(prog, data, avail, choice)
    fd = numeric_gradients(prog, data, avail, choice)
    assert max_rel_error(g, fd) < 1e-4


@given(seed=st.integers(0, 10_000), with_net=st.booleans(), with_nests=st.booleans(),
       log_scale=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_probabilities_and_gradients_stay_finite(seed, with_net, with_nests, log_scale):
    # finite data up to 1e6 in size; every row has an available alternative
    rng = np.random.default_rng(seed)
    prog, data, avail, choice = random_instance(rng, with_net, with_nests)
    data *= 10.0 ** log_scale
    v = forward(prog, data)[0]
    p = numcore.probabilities(prog, v, avail)
    dv, dmu, _ = numcore.loss_gradients(prog, v, avail, choice)
    g_beta = numcore.frozen_net_beta_gradient(prog, data, avail, choice)(prog.beta)
    for arr in (p, dv, dmu, g_beta):
        assert np.isfinite(arr).all()
    # a nested logsum keeps about eps * |mu v| of absolute accuracy
    tol = 8 * np.finfo(float).eps * max(1.0, float(np.abs(v).max() * prog.mu.max()))
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=tol)
    assert (p[avail == 0] == 0.0).all()
    assert np.array_equal(g_beta, gradients(prog, data, avail, choice, reduction="sum")["beta"])


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    prog, data, avail, _ = random_instance(rng, with_net=True, with_nests=False)
    dv = rng.normal(size=(data.shape[0], prog.n_alts))

    def f(x):
        r, _ = net_forward(prog, x, None)
        return float((dv * r).sum())

    g = input_gradients(prog, data, dv)
    h = 1e-6
    for row in range(min(3, data.shape[0])):
        for k, col in enumerate(prog.q_cols):
            bumped = data.copy()
            bumped[row, col] += h
            dipped = data.copy()
            dipped[row, col] -= h
            fd = (f(bumped) - f(dipped)) / (2 * h)
            assert g[row, k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ---------------------------------------------------------------------------
# the trainer

def _featureful_instance(seed=5):
    """Nets, nests, availability holes: every kernel branch exercised."""
    rng = np.random.default_rng(seed)
    n, n_alts, n_cols = 120, 3, 6
    term_param = np.array([0, 1, 2, 2], dtype=np.int64)
    term_alt = np.array([0, 1, 0, 2], dtype=np.int64)
    term_col = np.array([-1, 0, 1, 2], dtype=np.int64)
    beta = rng.normal(0, 0.3, 3)
    width, depth = 4, 2
    q_cols = np.array([3, 4, 5], dtype=np.int64)
    net = (rng.normal(0, 0.4, (3, width)), rng.normal(0, 0.4, (depth - 1, width, width)),
           rng.normal(0, 0.1, (depth, width)), rng.normal(0, 0.4, (width, n_alts)),
           rng.normal(0, 0.1, n_alts))
    alt_nest = np.array([0, 0, 1], dtype=np.int64)
    mu = np.array([1.4, 1.0])
    mu_free = np.array([1, 0], dtype=np.uint8)
    from lchoice.numcore.program import ModelProgram
    prog = ModelProgram(n_alts, 3, term_param, term_alt, term_col, beta, q_cols,
                        *net, alt_nest, mu, mu_free, True)
    data = rng.normal(0, 1, (n, n_cols))
    avail = (rng.random((n, n_alts)) > 0.2).astype(np.float64)
    avail[avail.sum(axis=1) == 0, 0] = 1.0
    choice = np.array([rng.choice(np.flatnonzero(avail[i] > 0)) for i in range(n)],
                      dtype=np.int64)
    return prog, data, avail, choice


def _wide_lmnl_instance(seed=21):
    """Width-100 LMNL on 1,000 rows: 100,000 dropout uniforms per epoch."""
    from lchoice.numcore.program import ModelProgram, single_nest
    rng = np.random.default_rng(seed)
    n, n_alts, width = 1000, 2, 100
    term_param = np.array([0, 1, 1], dtype=np.int64)
    term_alt = np.array([1, 0, 1], dtype=np.int64)
    term_col = np.array([-1, 0, 1], dtype=np.int64)
    q_cols = np.array([2, 3, 4], dtype=np.int64)
    prog = ModelProgram(n_alts, 2, term_param, term_alt, term_col, rng.normal(0, 0.3, 2),
                        q_cols, rng.normal(0, 0.3, (3, width)), np.zeros((0, width, width)),
                        rng.normal(0, 0.1, (1, width)), rng.normal(0, 0.1, (width, n_alts)),
                        np.zeros(n_alts), *single_nest(n_alts), False)
    data = rng.normal(0, 1, (n, 5))
    avail = np.ones((n, n_alts))
    choice = rng.integers(0, n_alts, n).astype(np.int64)
    return prog, data, avail, choice


def _pinned_fit(case):
    """Run one pinned case; returns the step count and the trace, beta, mu and a
    fingerprint of each net tensor."""
    if case == "nested":
        # free mu, availability holes, dropout, a last batch of one row
        prog, data, avail, choice = _featureful_instance(seed=5)
        cfg = TrainConfig(epochs=4, batch_size=17, dropout=0.2, l2=1e-4, seed=2,
                          learning_rate=0.01)
        fit = fit_program(prog, data, avail, choice, cfg)
    elif case == "frozen_net":
        prog, data, avail, choice = _featureful_instance(seed=6)
        cfg = TrainConfig(epochs=4, batch_size=25, dropout=0.2, seed=3, learning_rate=0.01)
        fit = fit_program(prog, data, avail, choice, cfg, train_net=False)
    else:
        prog, data, avail, choice = _wide_lmnl_instance()
        cfg = TrainConfig(epochs=2, batch_size=50, dropout=0.2, seed=4, learning_rate=0.01)
        fit = fit_program(prog, data, avail, choice, cfg)
    out = {"trace": fit.trace, "beta": prog.beta, "mu": prog.mu}
    for name in ("w_in", "w_hidden", "b_hidden", "w_out", "b_out"):
        arr = getattr(prog, name)
        out[name] = np.array([arr.sum(), (arr * arr).sum()])
    return fit.steps, out


# Captured from the per-batch trainer before the epoch-level rewrite: steps,
# the trace, beta, mu, and (sum, sum of squares) of each net tensor.
_PINNED = {
    "nested": (32, {
        "trace": [0.8465721834545182, 0.8167603153543969, 0.8126875228780278, 0.8014847024899048],
        "beta": [-0.1022489814893915, -0.22654458114776893, -0.10246892044282468],
        "mu": [1.2828782992695171, 1.0],
        "w_in": [1.4225791859558417, 1.7508986684204986],
        "w_hidden": [-2.0021741853691086, 1.2091113452594735],
        "b_hidden": [-0.40719334375239546, 0.11940162959810283],
        "w_out": [-1.4310470752445688, 1.4724926709165804],
        "b_out": [-0.18406588845454308, 0.030142465865344446],
    }),
    "frozen_net": (20, {
        "trace": [1.0717459709265817, 1.0447331328439196, 1.0213452193633932, 1.002731428052016],
        "beta": [0.13258314448096195, 0.39592623824753453, -0.607744385177834],
        "mu": [1.2192755131843203, 1.0],
        "w_in": [1.3110664789818218, 1.3302930937349393],
        "w_hidden": [0.9736807700848082, 2.902812889865488],
        "b_hidden": [0.12027472146438892, 0.03194838628825528],
        "w_out": [1.1276310231369218, 1.8246309360815092],
        "b_out": [0.07652166701805703, 0.010995362385730015],
    }),
    "wide": (40, {
        "trace": [0.751344559382999, 0.712079096724],
        "beta": [0.1060433183618816, 0.14938528823759853],
        "mu": [1.0],
        "w_in": [-9.20298356995163, 19.58777246477958],
        "w_hidden": [0.0, 0.0],
        "b_hidden": [-1.6929905120590112, 1.138761436038237],
        "w_out": [1.7964162502527385, 1.9953505326069787],
        "b_out": [-1.7780915628762273e-17, 5.047961048929329e-06],
    }),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_trainer_trajectory_is_pinned(case):
    steps, out = _pinned_fit(case)
    want_steps, want = _PINNED[case]
    assert steps == want_steps
    for name, value in want.items():
        np.testing.assert_allclose(out[name], value, rtol=0, atol=1e-12, err_msg=name)


def test_frozen_zero_net_phase_equals_pure_logit_fit():
    # with the output layer zero-initialised, training only beta of a hybrid
    # model is the same optimisation problem as a plain logit fit
    from lchoice.numcore.program import ModelProgram, empty_net, single_nest
    rng = np.random.default_rng(8)
    n, n_alts, n_cols = 90, 2, 4
    term_param = np.array([0, 0, 1, 1], dtype=np.int64)
    term_alt = np.array([0, 1, 0, 1], dtype=np.int64)
    term_col = np.array([0, 1, 2, 3], dtype=np.int64)
    data = rng.normal(0, 1, (n, n_cols))
    avail = np.ones((n, n_alts))
    choice = rng.integers(0, 2, n).astype(np.int64)

    logit = ModelProgram(n_alts, 2, term_param, term_alt, term_col, np.zeros(2),
                         np.zeros(0, np.int64), *empty_net(n_alts),
                         *single_nest(n_alts), False)
    width = 5
    hybrid = ModelProgram(n_alts, 2, term_param, term_alt, term_col, np.zeros(2),
                          np.array([2, 3], dtype=np.int64),
                          rng.normal(0, 0.5, (2, width)), np.zeros((0, width, width)),
                          np.zeros((1, width)), np.zeros((width, n_alts)),
                          np.zeros(n_alts), *single_nest(n_alts), False)
    cfg = TrainConfig(epochs=5, batch_size=30, dropout=0.2, seed=6)
    fit_program(logit, data, avail, choice, cfg)
    fit_program(hybrid, data, avail, choice, cfg, train_net=False)
    np.testing.assert_array_equal(logit.beta, hybrid.beta)


def test_mu_stays_clamped_at_one():
    cfg = TrainConfig(epochs=10, batch_size=16, dropout=0.0, seed=1,
                      learning_rate=0.05)
    prog, data, avail, choice = _featureful_instance(seed=9)
    fit_program(prog, data, avail, choice, cfg)
    assert (prog.mu >= 1.0).all()


def test_dropout_zero_training_forward_equals_eval():
    # rate 0 never draws mask uniforms, so the trace is the eval-mode loss
    cfg = TrainConfig(epochs=1, batch_size=10_000, dropout=0.0, seed=0)
    prog, data, avail, choice = _featureful_instance(seed=12)
    before = loss_value(prog, data, avail, choice)
    fit = fit_program(prog, data, avail, choice, cfg)
    assert fit.trace[0] == pytest.approx(before, rel=1e-12)


def test_fit_trace_shape_and_improvement():
    cfg = TrainConfig(epochs=40, batch_size=50, dropout=0.0, seed=4)
    prog, data, avail, choice = _featureful_instance(seed=13)
    fit = fit_program(prog, data, avail, choice, cfg)
    assert fit.status == "ok"
    assert fit.epochs_run == 40 and fit.trace.shape == (40,)
    assert fit.steps == 40 * math.ceil(data.shape[0] / 50)
    assert fit.trace[-1] < fit.trace[0]


def test_divergence_rolls_back_and_reports():
    prog, data, avail, choice = _featureful_instance(seed=14)
    # 1e200 activations times 1e200 output weights overflow every utility to
    # inf, so the masked softmax shift becomes inf - inf = nan
    prog.w_in[:] = 1e200
    prog.w_out[:] = 1e200
    snapshot = (prog.w_in.copy(), prog.w_out.copy(), prog.beta.copy())
    cfg = TrainConfig(epochs=3, batch_size=1000, dropout=0.0, seed=0)
    with np.errstate(all="ignore"):
        fit = fit_program(prog, data, avail, choice, cfg)
    assert fit.status == "diverged"
    assert fit.epochs_run <= 3
    np.testing.assert_array_equal(prog.w_in, snapshot[0])
    np.testing.assert_array_equal(prog.w_out, snapshot[1])
    np.testing.assert_array_equal(prog.beta, snapshot[2])


def test_fit_program_input_validation():
    prog, data, avail, choice = _featureful_instance(seed=15)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ValueError, match="row counts"):
        fit_program(prog, data, avail[:-1], choice, cfg)
    bad_avail = avail.copy()
    bad_avail[0] = 0.0
    with pytest.raises(ValueError, match="no available"):
        fit_program(prog, data, bad_avail, choice, cfg)
    holed = avail.copy()
    holed[1, :] = 1.0
    holed[1, choice[1]] = 0.0
    with pytest.raises(ValueError, match="unavailable"):
        fit_program(prog, data, holed, choice, cfg)


def test_active_backend_resolution():
    assert numcore.active_backend() == "numpy"


# ---------------------------------------------------------------------------
# the names the benchmark in perfbench/ reads or wraps

def test_benchmark_contract_names_exist():
    from lchoice import analysis, dataio, estimation, models, synthgen
    from lchoice.numcore import program
    for name in numcore.__all__:
        assert hasattr(numcore, name), name
    used = [(numcore, ("active_backend", "gradients", "TrainConfig")),
            (prng, ("uniforms", "derive_seed")),
            (program, ("linear_utilities", "net_forward", "loss_gradients", "sample_nll",
                       "backprop")),
            (estimation, ("fit_program", "fit_joint", "build_report", "hessian_std_errors")),
            (analysis, ("fit_joint", "build_model", "monte_carlo")),
            (models, ("predict_probabilities",)),
            (dataio, ("load_csv", "split")),
            (synthgen, ("gen_semi_synthetic",))]
    for owner, names in used:
        for name in names:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    # the benchmark wraps class attributes through the class __dict__
    for cls, name in ((analysis.DataSpec, "make"), (models.HybridChoiceModel, "program")):
        assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name}"
