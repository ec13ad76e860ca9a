"""Model construction, probability formulas, and serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lchoice import DataSpec, numcore
from lchoice.models import (
    NestStructure,
    UtilitySpec,
    UtilityTerm,
    build_model,
    load_model,
    load_model_dict,
    predict_probabilities,
    save_model,
    save_model_dict,
    systematic_utility,
)


def reference_nested(v, mu, groups, avail=None):
    """Closed-form two-level nested logit, written from the formula.

    p_i = e^{mu_m v_i} / S_m  *  S_m^{1/mu_m} / sum_l S_l^{1/mu_l},
    with S_m the sum of e^{mu_m v_j} over available members of nest m.
    """
    v = np.asarray(v, dtype=np.float64)
    avail = np.ones_like(v) if avail is None else np.asarray(avail, dtype=np.float64)
    shift = np.max(np.where(avail > 0, v, -np.inf))
    p = np.zeros_like(v)
    nest_mass = []
    for m, members in enumerate(groups):
        s = sum(avail[i] * math.exp(mu[m] * (v[i] - shift)) for i in members)
        nest_mass.append(s ** (1.0 / mu[m]) if s > 0 else 0.0)
    total = sum(nest_mass)
    for m, members in enumerate(groups):
        s = sum(avail[i] * math.exp(mu[m] * (v[i] - shift)) for i in members)
        if s <= 0:
            continue
        for i in members:
            p[i] = avail[i] * math.exp(mu[m] * (v[i] - shift)) / s * nest_mass[m] / total
    return p


def probabilities_of(v, labels, nests=None, avail=None):
    """`numcore.probabilities` of bare utilities (n, I), on the program of a built
    Logit, nested when ``nests`` is given."""
    model = build_model("Logit", labels, UtilitySpec(intercepts=labels[:1]), nests=nests)
    v = np.asarray(v, dtype=np.float64)
    avail = np.ones_like(v) if avail is None else np.asarray(avail, dtype=np.float64)
    return numcore.probabilities(model.program([]), v, avail)


def small_utility():
    return UtilitySpec(
        terms=(
            UtilityTerm.of("beta_p", {"1": "p1", "2": "p2"}),
            UtilityTerm.of("beta_a", {"1": "a1", "2": "a2"}),
        ),
        intercepts=("1",),
    )


# ---------------------------------------------------------------- formulas


def test_mnl_probabilities_hand_value():
    # e^ln2 / (e^ln2 + e^0) = 2/3
    p = probabilities_of([[math.log(2.0), 0.0]], ("1", "2"))
    np.testing.assert_allclose(p, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-15)


def test_mnl_availability_mask():
    v = np.array([[1.0, 5.0, 2.0]])
    avail = np.array([[1.0, 0.0, 1.0]])
    p = probabilities_of(v, ("1", "2", "3"), avail=avail)
    assert p[0, 1] == 0.0
    np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-15)
    # masked softmax over the two available entries
    z = np.exp([1.0 - 2.0, 0.0])
    np.testing.assert_allclose(p[0, [0, 2]], z / z.sum(), rtol=0, atol=1e-15)


def test_nested_probability_frozen_value():
    # three alternatives, nest {1,2} with mu=2 against singleton {3}, V=0:
    # within-nest shares 1/2, nest masses sqrt(2) and 1
    nests = NestStructure((("1", "2"), ("3",)), mu=np.array([2.0, 1.0]))
    p = probabilities_of(np.zeros((1, 3)), ("1", "2", "3"), nests)[0]
    root2 = math.sqrt(2.0)
    expect = np.array([root2 / (root2 + 1) / 2, root2 / (root2 + 1) / 2, 1 / (root2 + 1)])
    assert np.allclose(p, expect, atol=1e-12)
    assert np.allclose(p, [0.2928932188134524, 0.2928932188134524, 0.4142135623730951],
                       atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_nested_matches_reference_formula(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 2.0, size=4)
    mu = np.array([1.0 + rng.uniform(0, 3), 1.0 + rng.uniform(0, 3)])
    nests = NestStructure((("a", "b"), ("c", "d")), mu=mu, fixed=(False, False))
    p = probabilities_of([v], ("a", "b", "c", "d"), nests)[0]
    ref = reference_nested(v, mu, [(0, 1), (2, 3)])
    assert np.allclose(p, ref, atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_nested_reduces_to_mnl_at_unit_mu(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 3.0, size=(5, 3))
    avail = (rng.uniform(size=(5, 3)) < 0.8).astype(np.float64)
    avail[avail.sum(axis=1) == 0, 0] = 1.0
    nests = NestStructure((("x", "y"), ("z",)), mu=np.array([1.0, 1.0]),
                          fixed=(False, True))
    pn = probabilities_of(v, ("x", "y", "z"), nests, avail)
    pm = probabilities_of(v, ("x", "y", "z"), avail=avail)
    assert np.max(np.abs(pn - pm)) < 1e-12


def test_nested_shift_invariance():
    rng = np.random.default_rng(7)
    v = rng.normal(size=4)
    nests = NestStructure((("a", "b", "c"), ("d",)), mu=np.array([1.7, 1.0]))
    labels = ("a", "b", "c", "d")
    p0 = probabilities_of([v], labels, nests)
    p1 = probabilities_of([v + 123.4], labels, nests)
    assert np.allclose(p0, p1, atol=1e-12)


def test_nested_unavailable_alternative_gets_zero():
    nests = NestStructure((("a", "b"), ("c",)), mu=np.array([1.5, 1.0]))
    avail = np.array([1.0, 0.0, 1.0])
    p = probabilities_of([[0.3, 9.0, -0.2]], ("a", "b", "c"), nests, [avail])[0]
    assert p[1] == 0.0
    ref = reference_nested([0.3, 9.0, -0.2], [1.5, 1.0], [(0, 1), (2,)], avail)
    assert np.allclose(p, ref, atol=1e-12)


# ---------------------------------------------------------- nest structure


def test_nest_structure_validation():
    with pytest.raises(ValueError, match="mu >= 1"):
        NestStructure((("a",), ("b",)), mu=np.array([0.5, 1.0]))
    for mu in (np.nan, np.inf):  # inf once passed, and its fit came back "diverged"
        with pytest.raises(ValueError, match="must be finite"):
            NestStructure((("a",), ("b",)), mu=np.array([mu, 1.0]))
    with pytest.raises(ValueError, match="one mu per nest"):
        NestStructure((("a",), ("b",)), mu=np.array([1.0]))
    with pytest.raises(ValueError, match="more than one nest"):
        NestStructure((("a", "b"), ("b",))).resolve(("a", "b"))
    with pytest.raises(ValueError, match="not covered"):
        NestStructure((("a",),)).resolve(("a", "b"))
    with pytest.raises(ValueError, match="unknown alternative"):
        NestStructure((("a", "zzz"),)).resolve(("a", "b"))
    with pytest.raises(ValueError, match="nest 1 has no alternatives"):
        NestStructure((("1", "2"), ()))
    # one flag for two nests once trained the singleton's mu; three broadcast-failed
    for fixed, n_flags in (((False,), 1), ((False, True, True), 3)):
        with pytest.raises(ValueError, match=f"{n_flags} flags for 2 nests"):
            NestStructure((("a", "b"), ("c",)), mu=np.array([1.5, 1.0]), fixed=fixed)


def test_alternatives_are_named_by_label_only():
    # an integer once meant an index: intercepts (0,) named "Train" silently
    labels = ("Train", "SM", "Car")
    term = UtilityTerm.of("b", {"Train": "x", "Car": "x"})
    for util in (UtilitySpec((term,), intercepts=(0,)),
                 UtilitySpec((UtilityTerm.of("b", {"Train": "x", 2: "x"}),))):
        with pytest.raises(ValueError, match="unknown alternative"):
            build_model("Logit", labels, util)
    with pytest.raises(ValueError, match="unknown alternative"):
        NestStructure(((0, "SM"), ("Car",))).resolve(labels)
    assert build_model("Logit", labels, UtilitySpec((term,), ("SM",))).param_names == ("asc_SM", "b")


def test_singleton_nests_are_pinned_by_default():
    ns = NestStructure((("a", "b"), ("c",)))
    assert ns.fixed == (False, True)
    _, mu_free = ns.resolve(("a", "b", "c"))
    assert mu_free.tolist() == [1, 0]


def test_nest_structure_not_shared_between_models():
    ns = NestStructure((("1", "2"),), mu=np.array([1.5]), fixed=(False,))
    util = small_utility()
    m1 = build_model("LNL", ("1", "2"), util, q=("q1", "q2"), net_width=3, nests=ns)
    m2 = build_model("LNL", ("1", "2"), util, q=("q1", "q2"), net_width=3, nests=ns)
    m1.nests.mu[0] = 3.0
    assert m2.nests.mu[0] == 1.5
    assert ns.mu[0] == 1.5


# ------------------------------------------------------------ construction


def test_build_model_kind_validation():
    util = small_utility()
    with pytest.raises(ValueError, match="unknown model kind"):
        build_model("Probit", ("1", "2"), util)
    with pytest.raises(ValueError, match="no Q columns"):
        build_model("Logit", ("1", "2"), util, q=("q1",))
    with pytest.raises(ValueError, match="needs a utility"):
        build_model("Logit", ("1", "2"))
    with pytest.raises(ValueError, match="no linear utility"):
        build_model("DNN", ("1", "2"), util, q=("q1",))
    with pytest.raises(ValueError, match="needs Q columns"):
        build_model("DNN", ("1", "2"))
    with pytest.raises(ValueError, match="needs both"):
        build_model("DNN_L", ("1", "2"), util)
    with pytest.raises(ValueError, match="Q to equal the linear columns"):
        build_model("DNN_L", ("1", "2"), util, q=("q1", "q2"))
    with pytest.raises(ValueError, match="interpretability"):
        build_model("LMNL", ("1", "2"), util, q=("p1", "q1"))
    with pytest.raises(ValueError, match="needs a nest structure"):
        build_model("LNL", ("1", "2"), util, q=("q1", "q2"))
    with pytest.raises(ValueError, match="needs Q columns"):
        build_model("DummyLogit", ("1", "2"), util)


def test_dnn_l_accepts_matching_columns():
    util = small_utility()
    m = build_model("DNN_L", ("1", "2"), util, q=("p1", "p2", "a1", "a2"), net_width=4)
    assert m.net is not None
    assert set(m.q) == set(m.utility.x_columns())


def test_dummy_logit_expands_one_coefficient_per_column_and_alternative():
    util = UtilitySpec(
        terms=(UtilityTerm.of("beta_x", {"A": "x1", "B": "x2", "C": "x3"}),),
        intercepts=("A", "B"),
    )
    m = build_model("DummyLogit", ("A", "B", "C"), util, q=("g1", "g2", "g3", "g4"))
    # 2 intercepts + 1 shared coefficient + 4 columns x 3 alternatives
    assert m.n_parameters == 2 + 1 + 12
    assert m.q == ()
    assert m.utility.x_columns() == ("x1", "x2", "x3", "g1", "g2", "g3", "g4")
    assert m.net is None
    assert "g2@C" in m.param_names


def test_parameter_names_order_and_dedup():
    util = small_utility()
    m = build_model("Logit", ("1", "2"), util)
    assert m.param_names == ("asc_1", "beta_p", "beta_a")


def test_builder_initialization_layout():
    util = small_utility()
    m = build_model("LMNL", ("1", "2"), util, q=("q1", "q2"), net_width=8, seed=5)
    # intercepts are biases and start at zero
    assert m.beta[0] == 0.0
    # coefficients start inside the fan-based uniform bounds, not all zero
    lim = math.sqrt(6.0 / (2 + 1))
    coef = m.beta[1:]
    assert np.all(np.abs(coef) <= lim)
    assert np.any(coef != 0.0)
    # net output layer starts at zero so a fresh net adds nothing
    assert np.all(m.net.w_out == 0.0)
    assert np.all(m.net.b_out == 0.0)
    assert np.all(m.net.b_hidden == 0.0)
    assert np.any(m.net.w_in != 0.0)
    fan_lim = math.sqrt(6.0 / (2 + 8))
    assert np.all(np.abs(m.net.w_in) <= fan_lim)


def test_builder_initialization_seeded():
    util = small_utility()
    a = build_model("Logit", ("1", "2"), util, seed=9)
    b = build_model("Logit", ("1", "2"), util, seed=9)
    c = build_model("Logit", ("1", "2"), util, seed=10)
    assert np.array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, c.beta)


def test_fresh_net_contributes_nothing():
    ds = DataSpec(n_train=50, n_test=0).dataset(3)
    util = small_utility()
    hybrid = build_model("LMNL", ("1", "2"), util, q=("q1", "q2"), net_width=6, seed=2)
    logit = build_model("Logit", ("1", "2"), util, seed=2)
    assert np.array_equal(hybrid.beta, logit.beta)
    v_h = systematic_utility(hybrid, ds)
    v_l = systematic_utility(logit, ds)
    assert np.array_equal(v_h, v_l)


def test_net_output_constant_in_linear_columns():
    # the net never reads X, so V(x + dx) - V(x) is exactly the linear move
    ds = DataSpec(n_train=40, n_test=0).dataset(5)
    m = build_model("LMNL", ("1", "2"), small_utility(), q=("q1", "q2"),
                    net_width=5, seed=1)
    rng = np.random.default_rng(0)
    m.net.w_out[:] = rng.normal(size=m.net.w_out.shape)  # make the net non-trivial
    v0 = systematic_utility(m, ds)
    j = ds.col_index("p1")
    bumped = ds.values.copy()
    bumped[:, j] += 0.37
    ds2 = type(ds)(ds.columns, bumped, ds.avail, ds.choice, ds.alt_labels)
    v1 = systematic_utility(m, ds2)
    beta_p = m.beta[list(m.param_names).index("beta_p")]
    assert np.array_equal(v1[:, 1], v0[:, 1])  # alt 2 untouched
    assert np.allclose(v1[:, 0] - v0[:, 0], 0.37 * beta_p, atol=1e-12)


def test_predict_probabilities_keeps_no_activation_list():
    # an eval-mode pass updates each hidden layer in place: at most the layer
    # being computed and the one it reads are alive at once
    import tracemalloc
    n, width = 4_000, 100
    ds = DataSpec(n_train=n, n_test=0).dataset(4)
    m = build_model("LMNL", ("1", "2"), small_utility(), q=("q1", "c1", "q2", "c2"),
                    net_width=width, net_depth=3, seed=1)
    predict_probabilities(m, ds)  # compile the program outside the measurement
    tracemalloc.start()
    try:
        predict_probabilities(m, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * width * 8


def test_program_cached_and_layout_independent():
    ds = DataSpec(n_train=30, n_test=0).dataset(8)
    m = build_model("LMNL", ("1", "2"), small_utility(), q=("q1", "q2"),
                    net_width=4, seed=4)
    m.net.w_out[:] = 0.5
    assert m.program(ds.columns) is m.program(ds.columns)
    p0 = predict_probabilities(m, ds)
    perm = list(reversed(range(len(ds.columns))))
    ds2 = type(ds)([ds.columns[j] for j in perm], ds.values[:, perm],
                   ds.avail, ds.choice, ds.alt_labels)
    p1 = predict_probabilities(m, ds2)
    assert np.allclose(p0, p1, atol=1e-15)
    assert len(m._programs) == 2


def test_program_shares_parameter_arrays():
    ds = DataSpec(n_train=20, n_test=0).dataset(2)
    m = build_model("Logit", ("1", "2"), small_utility(), seed=0)
    prog = m.program(ds.columns)
    m.beta[:] = [0.0, 1.0, -1.0]
    assert np.array_equal(prog.beta, m.beta)


def test_unknown_column_errors_at_compile():
    util = UtilitySpec(terms=(UtilityTerm.of("b", {"1": "nope"}),))
    m = build_model("Logit", ("1", "2"), util)
    with pytest.raises(ValueError, match="unknown column 'nope'"):
        m.program(["p1", "p2"])


# ------------------------------------------------------------ persistence


def fitted_like_model(seed=0, kind="LNL"):
    """A model of ``kind`` with its parameters moved off their initial values:
    LNL of depth 2 with a nest and an intercept, Logit, DummyLogit, or a DNN of
    depth 1 with no linear parameters."""
    lnl = kind == "LNL"
    ns = NestStructure((("1", "2"),), mu=np.array([1.4]), fixed=(False,)) if lnl else None
    m = build_model(kind, ("1", "2"), None if kind == "DNN" else small_utility(),
                    q=() if kind == "Logit" else ("q1", "q2"),
                    net_width=3, net_depth=2 if lnl else 1, nests=ns, seed=seed)
    rng = np.random.default_rng(seed + 1)
    m.beta[:] = rng.normal(size=m.beta.shape)
    if m.net is not None:
        m.net.w_out[:] = rng.normal(size=m.net.w_out.shape)
        m.net.b_hidden[:] = rng.normal(size=m.net.b_hidden.shape)
    return m


@pytest.mark.parametrize("kind", ["LNL", "Logit", "DummyLogit", "DNN"])
def test_save_load_dict_round_trip(kind):
    m = fitted_like_model(kind=kind)
    d = save_model_dict(m)
    back = load_model_dict(d)
    # the derived keys a load checks are the ones a save writes
    assert json.dumps(save_model_dict(back)) == json.dumps(d)
    assert back.kind == m.kind
    assert back.param_names == m.param_names
    assert back.q == m.q
    assert np.array_equal(back.beta, m.beta)
    assert (back.net is None) == (m.net is None)
    for k in numcore.program.NET_TENSORS * (m.net is not None):
        assert np.array_equal(getattr(back.net, k), getattr(m.net, k)), k
    assert (back.nests is None) == (m.nests is None)
    if m.nests is not None:
        assert back.nests.groups == m.nests.groups
        assert np.array_equal(back.nests.mu, m.nests.mu)
    ds = DataSpec(n_train=25, n_test=0).dataset(6)
    assert np.array_equal(predict_probabilities(back, ds), predict_probabilities(m, ds))


def test_save_load_file_round_trip(tmp_path):
    m = fitted_like_model(seed=3)
    path = tmp_path / "model.json"
    save_model(m, str(path))
    back = load_model(str(path))
    assert np.array_equal(back.beta, m.beta)
    assert np.array_equal(back.nests.mu, m.nests.mu)


def test_load_model_dict_rejects_foreign_payload():
    with pytest.raises(ValueError, match="not a saved model"):
        load_model_dict({"format": "something-else"})


@pytest.mark.parametrize("spoil, key", [
    # reversed names once relabelled the coefficients silently
    pytest.param(lambda d: d["param_names"].reverse(), "param_names", id="reversed_names"),
    pytest.param(lambda d: d["param_names"].append("beta_z"), "param_names", id="extra_name"),
    # a short beta once surfaced as an IndexError
    pytest.param(lambda d: d["beta"].pop(), "beta", id="short_beta"),
    pytest.param(lambda d: d["net"]["w_in"].append([0.0] * 3), "w_in", id="w_in_shape"),
    pytest.param(lambda d: d["net"].update(width=4), "width", id="stated_width"),
    pytest.param(lambda d: d["partition"]["x"].pop(), "partition.x", id="stated_x"),
    pytest.param(lambda d: d.update(kind="Probit"), "kind", id="unknown_kind"),
    # a missing key once surfaced as a bare KeyError
    pytest.param(lambda d: d.pop("kind"), "kind", id="missing_key"),
    # each of these once loaded: a net the kind lacks, a nested logit with no net, a
    # later format read as version 1; a ragged tensor raised numpy's message, no key
    pytest.param(lambda d: d.update(kind="Logit"), "net", id="kind_without_net"),
    pytest.param(lambda d: d.update(net=None), "net", id="net_kind_with_null"),
    pytest.param(lambda d: d["net"]["w_out"][0].pop(), "w_out", id="ragged_w_out"),
    pytest.param(lambda d: d.update(version=7), "version", id="version_7"),
])
def test_load_model_dict_names_the_key_that_is_wrong(spoil, key):
    d = save_model_dict(fitted_like_model())
    spoil(d)
    with pytest.raises(ValueError, match=re.escape(key)):
        load_model_dict(d)


def test_load_model_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{'kind': 'Logit'}")
    with pytest.raises(ValueError, match=re.escape(f"model file {path} is not JSON")):
        load_model(str(path))


def test_a_loaded_copy_shares_no_array_with_its_source():
    m = fitted_like_model(seed=5)
    twin = load_model_dict(save_model_dict(m))
    m.beta[0] = 99.0
    m.net.w_out[0, 0] = -99.0
    m.nests.mu[0] = 7.0
    assert twin.beta[0] != 99.0
    assert twin.net.w_out[0, 0] != -99.0
    assert twin.nests.mu[0] == 1.4
