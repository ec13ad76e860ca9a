"""Unit tests for the numeric core: PRNG, softmax and NLL, gradients, the trainer."""

import ast
import decimal
import gc
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fd_util import max_rel_error, numeric_gradients, random_instance
from lchoice import numcore
from lchoice.estimation import _beta_hessian
from lchoice.numcore import (PROB_FLOOR, TrainConfig, compile_inputs, eval_inputs, fit_program,
                             gradients, input_gradients, loss_value, net_forward, sample_nll)
from lchoice.numcore import prng, program
from lchoice.numcore.program import choice_fault


# ---------------------------------------------------------------------------
# counter-based PRNG

def test_uniforms_are_counter_addressed():
    whole = prng.uniforms(42, 0, 10)
    tail = prng.uniforms(42, 5, 5)
    np.testing.assert_array_equal(whole[5:], tail)
    # the sequential reader takes consecutive blocks of its derived stream
    reader = prng.Stream(42, prng.StreamId.SPLIT)
    head = reader.draw(3)
    np.testing.assert_array_equal(np.concatenate([head, reader.draw(4)]),
                                  prng.uniforms(prng.derive_seed(42, 7), 0, 7))


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


def test_mix64_is_pinned():
    # the scalar and the array path of the splitmix64 finalizer
    assert int(prng.mix64(np.uint64(12345))) == 17540659726606785873
    assert int(prng.mix64(2**64 - 1)) == 13029008266876403067
    states = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    mixed = prng.mix64(states)
    assert mixed.tolist() == [0, 6238072747940578789, 2720858781877447050,
                              13029008266876403067]
    assert states.tolist() == mixed.tolist()  # a uint64 array is mixed in place
    assert prng.derive_seed(42, 7) == 6586493565358543072


@pytest.mark.parametrize("rate", [0.1, 0.2, 0.25, 0.5, 0.75, float(np.nextafter(1.0, 0.0)),
                                  2.0**-60])
@pytest.mark.parametrize("start", [0, 1, 12_345])
def test_keep_mask_is_the_thresholded_uniform_draw(rate, start):
    # u >= rate is compared on the integer states; 0.25 and 0.5 put rate * 2**53 on an
    # integer, where u == rate is possible and must keep the unit
    from lchoice.numcore.trainer import DRAW_CAP
    seed = prng.derive_seed(3, prng.StreamId.FIT)
    reader = prng.Stream(3, prng.StreamId.FIT)
    reader.draw(start)
    for n in (1, 1000, DRAW_CAP + 77):
        want = (prng.uniforms(seed, reader.count, n) >= rate) / (1.0 - rate)
        assert np.array_equal(reader.keep_mask(n, rate), want)
    assert reader.count == start + 1 + 1000 + DRAW_CAP + 77


@given(seed=st.integers(0, 2**63 - 1), start=st.integers(0, 1000),
       n=st.integers(1, 50))
@settings(max_examples=50, deadline=None)
def test_counter_addressing_property(seed, start, n):
    block = prng.uniforms(seed, start, n)
    singles = np.array([prng.uniforms(seed, start + i, 1)[0] for i in range(n)])
    np.testing.assert_array_equal(block, singles)


# ---------------------------------------------------------------------------
# softmax / cross entropy

def _plain_program(n_alts):
    """A plain logit program with no terms: `probabilities` of bare utilities."""
    from lchoice.numcore.program import ModelProgram, empty_net, single_nest
    none = np.zeros(0, dtype=np.int64)
    return ModelProgram(n_alts, 0, none, none, none, np.zeros(0), none,
                        *empty_net(n_alts), *single_nest(n_alts), False)


def test_softmax_two_thirds_one_third():
    # e^ln2 / (e^ln2 + e^0) = 2/3
    p = numcore.probabilities(_plain_program(2), np.array([[math.log(2.0), 0.0]]), np.ones((1, 2)))
    np.testing.assert_allclose(p, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-15)


def test_softmax_masks_unavailable_to_exact_zero():
    p = numcore.probabilities(_plain_program(3), np.array([[5.0, 1.0, 3.0]]),
                              np.array([[1.0, 0.0, 1.0]]))
    assert p[0, 1] == 0.0
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-15)
    # renormalises over the available pair
    expect = np.exp([5.0, 3.0]) / np.exp([5.0, 3.0]).sum()
    np.testing.assert_allclose(p[0, [0, 2]], expect, atol=1e-15)


def test_softmax_shift_invariance_leaves_the_utilities_unchanged():
    prog, v, avail = _plain_program(3), np.array([[0.3, -1.2, 2.0]]), np.ones((1, 3))
    p = numcore.probabilities(prog, v, avail)
    np.testing.assert_allclose(p, numcore.probabilities(prog, v + 123.4, avail), atol=1e-15)
    assert v.tolist() == [[0.3, -1.2, 2.0]]  # the softmax runs on a copy


def test_softmax_rejects_fully_unavailable_row():
    avail = np.ones((4, 3))
    avail[2] = 0.0
    for prog in (_plain_program(3), _featureful_instance(seed=15)[0]):  # plain, nested
        with pytest.raises(ValueError, match="^row 2: no available alternative$"):
            numcore.probabilities(prog, np.zeros((4, 3)), avail)


@pytest.mark.parametrize("n_alts", range(1, 10))
def test_softmax_folds_rows_in_numpys_reduction_order(n_alts):
    # given its two columns, the row max and row sum of a two-column z are one binary
    # call each; a numpy whose reductions add in another order fails here, not as
    # drift in the pinned fits
    rng = np.random.default_rng(n_alts)
    z = rng.normal(0.0, 30.0, (257, n_alts))
    z[rng.random(z.shape) < 0.3] = -np.inf  # masked entries
    z[np.arange(257), rng.integers(0, n_alts, 257)] = rng.normal(0.0, 30.0, 257)
    want = z - np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(want, out=want)
    want /= np.add.reduce(want, axis=1, keepdims=True)
    assert np.array_equal(program.softmax(z.copy()), want)
    assert np.array_equal(program.softmax(z.copy(), np.empty((257, 1))), want)
    if n_alts == 2:
        z2 = z.copy()
        assert np.array_equal(program.softmax(z2, np.empty((257, 1)), (z2[:, :1], z2[:, 1:])),
                              want)


def test_choice_fault_names_the_first_faulty_row_and_its_first_rule():
    unavail = np.zeros((6, 3), dtype=bool)
    choice = np.array([0, 1, 2, 0, 1, 2])
    assert choice_fault(unavail, choice) is None and choice_fault(unavail) is None
    unavail[4] = True  # nothing available, and so the chosen one is not either
    unavail[3, 0] = True  # the chosen alternative is unavailable
    assert choice_fault(unavail, choice) == "row 3: chosen alternative is unavailable"
    assert choice_fault(unavail) == "row 4: no available alternative"
    choice[4] = 3  # out of range comes first within a row
    choice[5] = -1
    unavail[3, 0] = False
    assert choice_fault(unavail, choice) == "row 4: choice 3 is not in [0, 3)"
    choice[4] = 1
    assert choice_fault(unavail, choice) == "row 4: no available alternative"
    assert choice_fault(unavail[5:], choice[5:]) == "row 0: choice -1 is not in [0, 3)"


def test_cross_entropy_uniform_is_log_n():
    # the mean per-row NLL is the cross entropy
    p = np.full((4, 3), 1.0 / 3.0)
    assert sample_nll(p, np.array([0, 1, 2, 0])).mean() == pytest.approx(math.log(3.0), abs=1e-15)


def test_cross_entropy_floors_zero_probability():
    p = np.array([[1.0, 0.0]])
    assert sample_nll(p, np.array([1]))[0] == -math.log(PROB_FLOOR)


def test_stream_ids_are_pinned():
    # every dataset, initialisation and fit is drawn from these streams, and
    # perfbench replays the fit stream by its value
    ids = {name: int(s) for name, s in prng.StreamId.__members__.items()}  # aliases too
    assert ids == {
        "FIT": 1, "NET_INIT": 2, "BETA_INIT": 3, "SPLIT": 7, "BINARY": 10,
        "UNOBSERVED": 11, "GUEVARA": 12, "ATTRIBUTE_TABLE": 13,
        "SEMI_SYNTH_NOISE": 14, "REPLICATION": 100}
    assert len(set(ids.values())) == len(ids)


def _stream_id_offences(source):
    """(line, what) of each literal stream id or np.random use in Python source."""
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("derive_seed", "Stream"):
                ids = node.args[1:2] + [k.value for k in node.keywords if k.arg == "stream"]
                if any(isinstance(c, ast.Constant) and isinstance(c.value, int)
                       for arg in ids for c in ast.walk(arg)):
                    found.append((node.lineno, f"literal stream id in {name}()"))
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, "np.random"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append((node.lineno, "numpy.random import"))
    return found


def test_stream_ids_come_from_the_table():
    # a lint over the package: stream ids are named in prng.StreamId, and all
    # randomness is the package's counter-based stream
    root = Path(prng.__file__).resolve().parents[1]
    offences = [f"{path.relative_to(root)}:{line}: {what}"
                for path in sorted(root.rglob("*.py")) if path.name != "prng.py"
                for line, what in _stream_id_offences(path.read_text())]
    assert offences == []
    bad = ("derive_seed(s, 100 + r)\nprng.Stream(s, stream=7)\n"
           "rng = np.random.default_rng(0)\nfrom numpy.random import default_rng\n"
           "derive_seed(s, StreamId.REPLICATION + r)\nStream(s, StreamId.FIT).draw(3)\n")
    assert sorted(line for line, _ in _stream_id_offences(bad)) == [1, 2, 3, 4]


CHOICE_RULES = ("is not in [0,", "no available alternative", "chosen alternative is unavailable")


def _choice_rule_spellings(source):
    """Sorted lines of Python source where a string, docstrings aside, spells a choice rule.

    Each literal part of an f-string is read on its own, so load_csv's located
    errors (``f"{at}: chosen alternative {label!r} is unavailable"``) spell none.
    """
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and id(node) not in docstrings
                   and any(rule in node.value for rule in CHOICE_RULES)})


def test_choice_rules_are_spelt_only_in_program():
    # a lint: program.choice_fault states the choice rules, and every other check calls it
    root = Path(prng.__file__).resolve().parents[1]
    offences = [f"{path.relative_to(root)}:{line}" for path in sorted(root.rglob("*.py"))
                if path.relative_to(root) != Path("numcore", "program.py")
                for line in _choice_rule_spellings(path.read_text())]
    assert offences == []
    bad = ('"""A docstring may say: no available alternative."""\n'
           'raise ValueError("row with no available alternative")\n'
           'raise ValueError(f"row {r}: chosen alternative is unavailable")\n'
           'raise DataError(f"{at}: chosen alternative {label!r} is unavailable")\n'
           'msg = f"choice {c} is not in [0, {n})"\n')
    assert _choice_rule_spellings(bad) == [2, 3, 5]
    assert _choice_rule_spellings((root / "numcore" / "program.py").read_text()) != []


def _callers(source, name):
    """(line, enclosing Class.function) of each ``name(...)`` call in Python source."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "attr", getattr(child.func, "id", None)) == name):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_models_above_the_trainer_come_from_a_recipe():
    # a lint: analysis and the CLI build every model through ModelRecipe.build,
    # so a study cannot re-encode a model and drop part of it
    root = Path(prng.__file__).resolve().parents[1]
    callers = {name: [scope for _, scope in _callers((root / name).read_text(), "build_model")]
               for name in ("analysis.py", "cli.py")}
    assert callers == {"analysis.py": ["ModelRecipe.build"], "cli.py": []}
    bad = ("def run():\n    return models.build_model('Logit', labels)\n"
           "class ModelRecipe:\n    def build(self):\n        return build_model(self.kind)\n")
    assert _callers(bad, "build_model") == [(2, "run"), (5, "ModelRecipe.build")]


def test_eval_mode_net_passes_run_in_blocks():
    # a lint: every inference pass over a dataset runs the net through the block
    # loop, so none holds a hidden activation for all rows; the trainer's bound
    # `step` and the raw-batch adapter `net_forward` see one batch each
    root = Path(prng.__file__).resolve().parents[1]
    callers = {path.relative_to(root).as_posix(): [scope for _, scope in
                                                   _callers(path.read_text(), "net_output")]
               for path in sorted(root.rglob("*.py"))}
    assert {k: v for k, v in callers.items() if v} == {
        "numcore/program.py": ["_net_blocks", "net_forward", "step"]}
    bad = "def predict(prog, q):\n    return pr.net_output(prog, q)\n"
    assert _callers(bad, "net_output") == [(2, "predict")]


# ---------------------------------------------------------------------------
# init

def test_glorot_bounds_and_determinism():
    w = prng.Stream(4, prng.StreamId.NET_INIT).glorot(30, 20)
    limit = math.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert np.abs(w).max() <= limit
    np.testing.assert_array_equal(w, prng.Stream(4, prng.StreamId.NET_INIT).glorot(30, 20))


# ---------------------------------------------------------------------------
# Adam

def test_train_config_validation():
    for bad in (dict(epochs=-1), dict(batch_size=0), dict(dropout=1.0), dict(l2=-0.5),
                dict(l2=float("nan")), dict(l2=float("inf")),
                dict(learning_rate=-0.01), dict(learning_rate=0.0),
                dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
                dict(epochs=2.5), dict(epochs=True), dict(batch_size=50.0),
                dict(batch_size="50"), dict(seed=1.5), dict(seed=None)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # a bool once trained as 1.0 and a string failed with a bare comparison error
    for name in ("dropout", "l2", "learning_rate"):
        for value in (True, False, "0.2", None, 1j):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
                TrainConfig(**{name: value})
    ok = TrainConfig(epochs=np.int64(3), batch_size=np.int32(10), seed=np.uint64(7))
    assert ok.epochs == 3 and ok.batch_size == 10 and ok.seed == 7
    ok = TrainConfig(dropout=np.float32(0.25), l2=0, learning_rate=np.float64(0.5))
    assert (ok.dropout, ok.l2, ok.learning_rate) == (0.25, 0, 0.5)


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
    g = gradients(prog, *compile_inputs(prog, data, avail, choice))[0]["beta"]
    # one full batch: the bias-corrected first step is lr * g / (|g| + eps) ~ lr * sign(g)
    fit_program(prog, data, avail, choice, TrainConfig(epochs=1, batch_size=1000,
                                                       learning_rate=0.01))
    np.testing.assert_allclose(prog.beta, beta0 - 0.01 * np.sign(g), rtol=0, atol=1e-5)


@pytest.mark.parametrize("holes", [False, True])
def test_adam_matches_reference_updates(holes):
    # full-batch steps of the trainer against Adam written from the formula
    prog, data, avail, choice = _logit_instance()
    if holes:  # a fit with holes masks every step
        rows = np.arange(0, data.shape[0], 3)
        avail[rows, (choice[rows] + 1) % 3] = 0.0
    beta0 = prog.beta.copy()
    cfg = TrainConfig(epochs=5, batch_size=1000, learning_rate=0.05)
    lr, b1, b2, eps = cfg.learning_rate, 0.9, 0.999, 1e-7
    ref = beta0.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    for t in range(1, 6):
        prog.beta[...] = ref
        g = gradients(prog, *compile_inputs(prog, data, avail, choice))[0]["beta"]
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
        g, _ = gradients(prog, *compile_inputs(prog, data, avail, choice))
        fd = numeric_gradients(prog, data, avail, choice)
        assert max_rel_error(g, fd) < 1e-4


def test_l2_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    prog, data, avail, choice = random_instance(rng, with_net=True, with_nests=False)
    g, _ = gradients(prog, *compile_inputs(prog, data, avail, choice), l2=0.05)
    fd = numeric_gradients(prog, data, avail, choice, l2=0.05)
    assert max_rel_error(g, fd) < 1e-4


@pytest.mark.parametrize("reduction", ["Mean", "SUM", "", "none"])
def test_gradients_refuse_an_unknown_reduction(reduction):
    # "Mean" once gave the summed NLL without l2, 50 times the mean's gradient
    prog, data, avail, choice = _logit_instance()
    inputs = compile_inputs(prog, data[:50], avail[:50], choice[:50])
    with pytest.raises(ValueError, match=f"reduction must be 'mean' or 'sum', got '{reduction}'"):
        gradients(prog, *inputs, l2=0.01, reduction=reduction)


def test_l2_penalty_adds_exactly():
    rng = np.random.default_rng(56)
    prog, data, avail, choice = random_instance(rng, with_net=True, with_nests=False)
    base = loss_value(prog, data, avail, choice, l2=0.0)
    ssq = float((prog.w_in ** 2).sum() + (prog.w_hidden ** 2).sum() + (prog.w_out ** 2).sum())
    with_l2 = loss_value(prog, data, avail, choice, l2=0.3)
    assert with_l2 == pytest.approx(base + 0.3 * ssq, rel=1e-12)


def _nested_row_reference(v, avail, alt_nest, mu, chosen):
    """d(-ln P_chosen)/dV, d/dmu and P of one row, as 50-digit Decimals, by loops over the
    two-level formula (d/dmu by its own derivative, not the chain rule in mu * V).

    The logsum arguments mu * V and the inclusive values ln S / mu are taken as float64
    holds them: at |mu V| = 1.7e6 one ulp of either is ~2e-10, which moves P relative
    by as much, so no float64 pass can do better; every other step is exact."""
    d = decimal.Decimal
    with decimal.localcontext(prec=50):
        alts, nests = range(len(v)), range(len(mu))
        s = [d(float(mu[alt_nest[j]] * v[j])) for j in alts]
        v, mu = [d(float(x)) for x in v], [d(float(x)) for x in mu]
        members = [[j for j in alts if alt_nest[j] == m and avail[j] > 0] for m in nests]
        ln_s, ebar, cond = [None] * len(mu), [d(0)] * len(mu), [d(0)] * len(v)
        for m in nests:
            if members[m]:
                c = max(s[j] for j in members[m])
                ln_s[m] = c + sum((s[j] - c).exp() for j in members[m]).ln()
                for j in members[m]:
                    cond[j] = (s[j] - ln_s[m]).exp()
                ebar[m] = sum(cond[j] * v[j] for j in members[m])
        incl = {m: d(float(ln_s[m] / mu[m])) for m in nests if members[m]}
        top = max(incl.values())
        total = sum((x - top).exp() for x in incl.values())
        p_nest = [(incl[m] - top).exp() / total if m in incl else d(0) for m in nests]
        p = [p_nest[alt_nest[j]] * cond[j] for j in alts]
        star = alt_nest[chosen]
        dv = [p[j] + (mu[star] - 1) * cond[j] * (alt_nest[j] == star) - mu[star] * (j == chosen)
              for j in alts]
        dmu = [p_nest[m] * (ebar[m] / mu[m] - ln_s[m] / mu[m] ** 2) if members[m] else d(0)
               for m in nests]
        dmu[star] += -v[chosen] + ebar[star] - ebar[star] / mu[star] + ln_s[star] / mu[star] ** 2
        return dv, dmu, p


@pytest.mark.parametrize("case", ["survey_layout", "nest_unavailable", "far_below_at_1e6"])
def test_nested_loss_gradients_match_per_row_formula(case):
    from lchoice.numcore.program import ModelProgram, empty_net
    rng = np.random.default_rng(11)
    n, alt_nest, mu = 40, np.array([0, 1, 0]), np.array([1.7, 1.0])  # the survey's layout
    v = rng.normal(0.0, 2.0, (n, 3))
    avail = np.ones((n, 3))
    avail[rng.random((n, 3)) < 0.2] = 0.0
    if case == "nest_unavailable":
        avail[::3, 1] = 0.0  # nest 1 holds alternative 1 alone
        avail[1::3, [0, 2]] = 0.0
    if case == "far_below_at_1e6":
        v = 1e6 + 50.0 * v
        v[::2, [0, 2]] -= 900.0  # exp(-900) underflows under one shift by the row max
    avail[avail.sum(axis=1) == 0, 1] = 1.0
    choice = np.array([rng.choice(np.flatnonzero(a > 0)) for a in avail])
    choice[::4] = np.where(avail[::4, 1] > 0, 1, choice[::4])
    prog = ModelProgram(3, 0, *np.zeros((3, 0), dtype=np.int64), np.zeros(0),
                        np.zeros(0, dtype=np.int64), *empty_net(3), alt_nest, mu,
                        np.array([1, 0], dtype=np.uint8), True)
    got = numcore.loss_gradients(prog, v, avail, choice)
    rows = [_nested_row_reference(v[i], avail[i], alt_nest, mu, choice[i]) for i in range(n)]
    with decimal.localcontext(prec=50):
        dmu = [sum(row[1][m] for row in rows) for m in range(2)]
    want = [np.array([[float(x) for x in row[k]] for row in rows]) for k in (0, 2)]
    want.insert(1, np.array([float(x) for x in dmu]))  # summed over the rows, then rounded
    # P and dV relative to each value, but dV's chosen entry, which cancels P against its
    # nest's mu, relative to that mu; dmu relative to the size of the logsum terms it cancels
    sizes = (np.where(np.eye(3)[choice] > 0, mu[alt_nest], 0.0), np.abs(v).max(), 0.0)
    for name, g, w, size in zip(("dv", "dmu", "p"), got, want, sizes):
        assert g.shape == w.shape and np.isfinite(g).all(), name
        assert (np.abs(g - w) <= 1e-12 * np.maximum(np.abs(w), size)).all(), name
    assert (got[0][avail == 0] == 0.0).all() and (got[2][avail == 0] == 0.0).all()


@pytest.mark.parametrize("at_hole", [np.inf, -np.inf, np.nan])
def test_nested_dmu_finite_with_non_finite_utility_where_unavailable(at_hole):
    # the utility at an unavailable alternative must not reach d/dmu: 0 * inf there was NaN
    from lchoice.numcore.program import ModelProgram, empty_net, utility_gradients
    prog = ModelProgram(3, 0, *np.zeros((3, 0), dtype=np.int64), np.zeros(0),
                        np.zeros(0, dtype=np.int64), *empty_net(3), np.array([0, 1, 0]),
                        np.array([1.7, 1.0]), np.array([1, 0], dtype=np.uint8), True)
    unavail, onehot = np.array([[False, False, True]]), np.array([[1.0, 0.0, 0.0]])
    v = np.array([[0.4, -1.2, 2.5]])
    want = utility_gradients(prog, v.copy(), unavail, onehot)
    v[0, 2] = at_hole
    got = utility_gradients(prog, v, unavail, onehot)
    assert np.isfinite(got[1]).all()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@given(seed=st.integers(0, 10_000))
@example(seed=356)  # beta gradient of ~-2e-17, all finite-difference rounding
@settings(max_examples=20, deadline=None)
def test_gradient_property_random_shapes(seed):
    rng = np.random.default_rng(seed)
    prog, data, avail, choice = random_instance(
        rng, with_net=bool(rng.integers(2)), with_nests=bool(rng.integers(2)))
    g, _ = gradients(prog, *compile_inputs(prog, data, avail, choice))
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
    inputs = eval_inputs(prog, data)
    v = numcore.utilities(prog, *inputs)
    p = numcore.probabilities(prog, v, avail)
    dv, dmu, _ = numcore.loss_gradients(prog, v, avail, choice)
    hess = _beta_hessian(prog, inputs, avail, choice)
    for arr in (p, dv, dmu, hess):
        assert np.isfinite(arr).all()
    assert np.array_equal(hess, hess.T)
    # a nested logsum keeps about eps * |mu v| of absolute accuracy
    tol = 8 * np.finfo(float).eps * max(1.0, float(np.abs(v).max() * prog.mu.max()))
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=tol)
    assert (p[avail == 0] == 0.0).all()


def _where_masked_gradients(prog, avail):
    """`utility_gradients` with availability applied by ``np.where`` on 0/1 ``avail``,
    as before the mask was compiled: the reference of the compiled mask.  The
    nested d/dmu reads the logsum arguments with UNAVAILABLE where unavailable."""
    from lchoice.numcore.program import UNAVAILABLE

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def reference(prog, v, unavail, onehot, work=None):
        if not prog.use_nests:
            p = softmax(np.where(avail > 0, v, -np.inf))
            return p - onehot, None, p
        lay, member, member_t, mu = prog.layout, prog.layout.member, prog.layout.member.T, prog.mu
        mu_alt = np.dot(member, mu)
        s = np.where(avail > 0, v * mu_alt, UNAVAILABLE)
        c = np.maximum.reduceat(s.take(lay.order, axis=1), lay.start, axis=1)
        e = np.exp(s - np.dot(c, member_t))
        sums = np.dot(e, member)
        ln_s = np.log(sums) + c
        p_cond = e / np.dot(sums, member_t)
        p_nest = softmax(ln_s / mu)
        p = np.dot(p_nest, member_t) * p_cond
        dv = (np.dot(np.dot(onehot, member) * (mu - 1.0) + p_nest, member_t) * p_cond
              - onehot * mu_alt)
        dmu = np.dot(((s - np.dot(ln_s, member_t)) * dv).sum(axis=0), member) / (mu * mu)
        return dv, dmu, p

    return reference


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
@pytest.mark.parametrize("with_nests", [False, True])
def test_compiled_mask_matches_where_masking(monkeypatch, scale, with_nests):
    from lchoice.numcore import program
    rng = np.random.default_rng(21)
    for _ in range(6):
        prog, data, avail, choice = random_instance(rng, with_net=True, with_nests=with_nests)
        assert (avail == 0).any()  # holes
        data *= scale
        inputs = compile_inputs(prog, data, avail, choice)
        assert np.array_equal(inputs[2], avail == 0)
        v = numcore.utilities(prog, *eval_inputs(prog, data))
        hole = np.argwhere(avail == 0)[0]
        for at_hole in (0.0, np.inf, np.nan):  # a non-finite utility where unavailable
            v[tuple(hole)] = at_hole
            want = _where_masked_gradients(prog, avail)(prog, v, None, inputs[3])
            got = program.utility_gradients(prog, v.copy(), *inputs[2:])
            for g, ref in zip(got, want):
                assert (g is None and ref is None) or np.array_equal(g, ref)
            assert np.array_equal(numcore.probabilities(prog, v, avail), want[2])
        mask = np.where(rng.random((data.shape[0], prog.hidden_width)) < 0.2, 0.0, 1.25)
        got = gradients(prog, *inputs, l2=0.01, mask=mask)
        with monkeypatch.context() as patch:
            patch.setattr(program, "utility_gradients", _where_masked_gradients(prog, avail))
            want = gradients(prog, *inputs, l2=0.01, mask=mask)
        assert np.array_equal(got[1], want[1])
        assert got[0].keys() == want[0].keys()
        for name in got[0]:
            assert np.array_equal(got[0][name], want[0][name]), name


def _wide_instance(n, width, depth, seed=0):
    """A plain-logit program with a ``depth``-layer net of ``width`` units over 4 of 6
    columns, and ``n`` rows of data for it."""
    rng = np.random.default_rng(seed)
    n_alts, dq = 2, 4
    prog = numcore.ModelProgram(
        n_alts, 3, np.arange(3), np.array([0, 1, 1]), np.array([0, 1, -1]), rng.normal(size=3),
        np.arange(dq), rng.normal(0.0, 0.5, (dq, width)),
        rng.normal(0.0, width ** -0.5, (depth - 1, width, width)),
        rng.normal(0.0, 0.1, (depth, width)), rng.normal(0.0, 0.3, (width, n_alts)),
        rng.normal(0.0, 0.1, n_alts), *program.single_nest(n_alts), False)
    return prog, rng.normal(size=(n, 6))


def test_eval_pass_within_one_block_is_one_net_output_call():
    prog, data = _wide_instance(program.EVAL_CELLS // 100, 100, 3)  # exactly one block
    xl, v_net = eval_inputs(prog, data)
    assert np.array_equal(v_net, program.net_output(prog, data[:, prog.q_cols]))
    assert np.array_equal(xl, program.linear_inputs(prog, data))


@pytest.mark.parametrize("rows", [1, 7])
def test_blocked_passes_match_one_call(monkeypatch, rows):
    prog, data = _wide_instance(3 * 7 + 1, 5, 2)  # at 7 rows a block: 3 blocks and a 1-row tail
    dv = np.random.default_rng(1).normal(size=(data.shape[0], prog.n_alts))
    whole = eval_inputs(prog, data)[1], input_gradients(prog, data, dv)  # one block each
    monkeypatch.setattr(program, "EVAL_CELLS", rows * prog.hidden_width)
    blocked = eval_inputs(prog, data)[1], input_gradients(prog, data, dv)
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_eval_pass_memory_is_bounded_by_the_block():
    # deep_wide's shape: one 20,000-row pass once held two 20,000 x 100 activations
    # (about 31 MiB); a block holds two of at most EVAL_CELLS floats each
    prog, data = _wide_instance(20_000, 100, 3)
    tracemalloc.start()
    try:
        xl, v_net = eval_inputs(prog, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < xl.nbytes + v_net.nbytes + 3 * program.EVAL_CELLS * 8  # 2.3 MiB
    one_call = program.net_output(prog, data[:, prog.q_cols])
    np.testing.assert_allclose(v_net, one_call, rtol=0.0, atol=1e-12)


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


def _wide_lmnl_instance(seed=21, n=1000, width=100, depth=1):
    """LMNL with a ``depth``-layer net, by default width 100 on 1,000 rows: 100,000
    dropout uniforms per epoch."""
    from lchoice.numcore.program import ModelProgram, single_nest
    rng = np.random.default_rng(seed)
    n_alts = 2
    term_param = np.array([0, 1, 1], dtype=np.int64)
    term_alt = np.array([1, 0, 1], dtype=np.int64)
    term_col = np.array([-1, 0, 1], dtype=np.int64)
    q_cols = np.array([2, 3, 4], dtype=np.int64)
    prog = ModelProgram(n_alts, 2, term_param, term_alt, term_col, rng.normal(0, 0.3, 2),
                        q_cols, rng.normal(0, 0.3, (3, width)),
                        rng.normal(0, 0.3, (depth - 1, width, width)),
                        rng.normal(0, 0.1, (depth, width)), rng.normal(0, 0.1, (width, n_alts)),
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
    elif case == "deep":
        # dropout on the last of three hidden layers, backpropagated through two
        # hidden-to-hidden layers; a last batch of 30 rows
        prog, data, avail, choice = _wide_lmnl_instance(seed=22, n=230, width=20, depth=3)
        cfg = TrainConfig(epochs=3, batch_size=40, dropout=0.3, l2=1e-4, seed=5,
                          learning_rate=0.01)
        fit = fit_program(prog, data, avail, choice, cfg)
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
    # captured from the trainer that kept the compiled inputs beside their permuted
    # copy and applied dropout to a copy of the last hidden activation
    "deep": (18, {
        "trace": [0.735640756953225, 0.7107945116339495, 0.7055370031771361],
        "beta": [-0.3596627684821734, -0.21588951810832993],
        "mu": [1.0],
        "w_in": [2.7722474603354037, 7.268877394319738],
        "w_hidden": [-8.938242700624567, 56.901160824486766],
        "b_hidden": [-1.4216427151783226, 0.9230486514538937],
        "w_out": [0.401013279724607, 0.28336168060804146],
        "b_out": [6.938893903907228e-18, 0.007109746764620747],
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


def test_trainer_steps_through_gradients(monkeypatch):
    # every step trains on the gradient the finite-difference tests check: the
    # trainer's bound step writes what `gradients` gives on the same batch and mask
    from lchoice.numcore import program
    cfg = TrainConfig(epochs=3, batch_size=17, dropout=0.2, seed=2, l2=1e-3)
    calls, nested = [], []
    real = program.step

    def spy(prog, b, l2=0.0, scale=1):
        p = real(prog, b, l2, scale)
        if nested:  # the step of the `gradients` call below
            return p
        nested.append(b)
        try:
            fresh = {k: np.empty_like(g) for k, g in b.work.out.items()}
            want, want_p = gradients(prog, b.xl, b.q, b.unavail, b.onehot, cfg.l2, b.mask,
                                     out=fresh)
        finally:
            nested.clear()
        assert p is b.probs and np.array_equal(p, want_p)
        assert want.keys() == {"beta", *program.NET_TENSORS, *["mu"] * prog.use_nests}
        for k, g in b.work.out.items():
            assert np.array_equal(g, want[k]), k
        calls.append(b.rows)
        return p

    monkeypatch.setattr(program, "step", spy)
    lmnl = _wide_lmnl_instance(n=120, width=6, depth=2)  # two alternatives: a folded softmax
    rows = np.arange(0, 120, 3)
    lmnl[2][rows, 1 - lmnl[3][rows]] = 0.0
    for prog, data, avail, choice in (_featureful_instance(seed=5), lmnl):  # nested; plain
        calls.clear()
        fit = fit_program(prog, data, avail, choice, cfg)
        assert fit.status == "ok" and (avail == 0).any()
        assert len(calls) == fit.steps
        assert sum(calls) == fit.epochs_run * data.shape[0]
        assert sorted(set(calls)) == [data.shape[0] % 17, 17]  # a short last batch


def test_trainer_compiles_inputs_once_per_epoch_into_the_same_buffers(monkeypatch):
    from lchoice.numcore import program
    calls = []
    real = program.compile_inputs

    def spy(prog, data, avail, choice, rows=None, out=None):
        got = real(prog, data, avail, choice, rows, out)
        calls.append((np.sort(rows), tuple(id(a) for a in got)))
        return got

    monkeypatch.setattr(program, "compile_inputs", spy)
    prog, data, avail, choice = _featureful_instance(seed=5)
    fit = fit_program(prog, data, avail, choice, TrainConfig(epochs=3, batch_size=17, seed=2))
    assert fit.steps == 24 and len(calls) == fit.epochs_run == 3
    for rows, buffers in calls:
        assert np.array_equal(rows, np.arange(data.shape[0]))  # a permutation of every row
        assert buffers == calls[0][1]


@pytest.mark.parametrize("cells", [program.GATHER_CELLS, 45])
def test_trainer_refills_rows_as_compile_inputs_builds_them(monkeypatch, cells):
    # 45 cells gather the 120 six-column rows 7 at a time, the last block holding one
    monkeypatch.setattr(program, "GATHER_CELLS", cells)
    prog, data, avail, choice = _featureful_instance(seed=5)
    rows = np.random.default_rng(0).permutation(data.shape[0])
    whole = compile_inputs(prog, data, avail, choice)
    refilled = compile_inputs(prog, data, avail, choice, rows,
                              compile_inputs(prog, data, avail, choice, rows[::-1]))
    for got, want in zip(refilled, whole):
        assert got.dtype == want.dtype and got.flags.c_contiguous == want.flags.c_contiguous
        assert np.array_equal(got, want[rows])


def test_fit_memory_is_one_copy_of_its_inputs_and_one_step():
    # keeping the compiled inputs beside their permuted copy, and a dropped-out copy
    # of the last hidden activation, peaked at 10.4 activations of one step beyond
    # what is counted here; a new array per pass, 6.09
    prog, data, avail, choice = _wide_lmnl_instance(seed=1, n=20000, width=100, depth=3)
    n, batch, width = data.shape[0], 500, prog.hidden_width
    cfg = TrainConfig(epochs=1, batch_size=batch, dropout=0.2, seed=0, learning_rate=0.01)
    tracemalloc.start()
    try:
        fit_program(prog, data, avail, choice, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = prog.lin_cols.size + 1 + prog.q_cols.size + prog.n_alts  # X_lin, Q, one-hot
    inputs = n * (8 * floats + prog.n_alts + 8)  # and the mask and the choice codes
    per_row = n * (8 * prog.n_alts + 8)  # probabilities for the trace, the permutation
    params = sum(getattr(prog, k).nbytes for k in ("beta",) + program.NET_TENSORS)
    # parameters, gradient, two Adam moments, two Adam work vectors, rollback copy
    # and the step's workspace: three activations, each overwritten by its backward
    # gradient, and an eighth of one for the ReLU gate; the mask buffer, and the
    # mask draw's states and flags (1.125): 5.25 activations, 5.51 measured
    assert peak <= inputs + per_row + 7 * params + 5.75 * batch * width * 8


def test_a_fit_leaves_no_reference_cycle():
    # a workspace that held itself lived on until the cycle collector ran: peak RSS
    # grew by 128 KiB with each lmnl_small estimate
    prog, data, avail, choice = _featureful_instance(seed=5)  # a short last batch
    gc.collect()
    gc.disable()
    try:
        fit_program(prog, data, avail, choice, TrainConfig(epochs=2, batch_size=17, seed=2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_draw_grouping_leaves_a_fit_unchanged(monkeypatch):
    # masks drawn per batch, per two batches (the last draw shorter than the
    # buffer) and per epoch read the same stream, so the fits are equal bit for bit
    from lchoice.numcore import trainer
    fits = []
    for cap in (1, 2 * 40 * 20, trainer.DRAW_CAP):
        monkeypatch.setattr(trainer, "DRAW_CAP", cap)
        prog, data, avail, choice = _wide_lmnl_instance(seed=22, n=230, width=20, depth=2)
        cfg = TrainConfig(epochs=2, batch_size=40, dropout=0.3, seed=5, learning_rate=0.01)
        fit = fit_program(prog, data, avail, choice, cfg)
        fits.append([fit.trace] + [getattr(prog, k) for k in ("beta",) + program.NET_TENSORS])
    for got in fits[1:]:
        for a, b in zip(got, fits[0]):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["lmnl_dropout", "nested_holes", "logit", "frozen_net"])
def test_a_reused_workspace_changes_nothing(case):
    # one workspace through a full batch, the short last batch and a full batch
    # again: each step's gradients and probabilities equal a fresh call's
    if case == "logit":
        prog, data, avail, choice = _logit_instance()  # 40 rows, no net
        rows = np.arange(0, data.shape[0], 3)
        avail[rows, (choice[rows] + 1) % 3] = 0.0  # holes the choices keep clear of
    elif case == "lmnl_dropout":
        prog, data, avail, choice = _wide_lmnl_instance(n=120, width=6, depth=2)
    else:  # free mu, availability holes
        prog, data, avail, choice = _featureful_instance(seed=5)
    names = ["beta"] + list(program.NET_TENSORS) * (prog.has_net and case != "frozen_net")
    names += ["mu"] * prog.use_nests
    inputs = compile_inputs(prog, data, avail, choice)
    n, bs, rng = data.shape[0], 17, np.random.default_rng(0)
    out = {k: np.empty_like(getattr(prog, k)) for k in names}
    work = program.StepWork(prog, bs, out, holes=bool(inputs[2].any()))
    for b in (slice(0, bs), slice(n - n % bs, n), slice(bs, 2 * bs)):
        rows = b.stop - b.start
        mask = None
        if case == "lmnl_dropout":
            mask = np.where(rng.random((rows, prog.hidden_width)) < 0.3, 0.0, 1 / 0.7)
        batch = [a[b] for a in inputs]
        probs = np.full((rows, prog.n_alts), np.nan)
        got, p = gradients(prog, *batch, 1e-3, mask, work=work, probs=probs)
        fresh = {k: np.empty_like(getattr(prog, k)) for k in names}
        want, want_p = gradients(prog, *batch, 1e-3, mask, out=fresh)
        assert p is probs and np.array_equal(p, want_p)
        assert got is out and got.keys() == want.keys()
        for k in names:
            assert np.array_equal(got[k], want[k]), k


def test_a_warm_workspace_step_allocates_less_than_one_activation():
    # deep_wide's step: 500 rows, three layers of 100 units, dropout
    prog, data = _wide_instance(500, 100, 3)
    rng = np.random.default_rng(0)
    inputs = compile_inputs(prog, data, np.ones((500, 2)), rng.integers(0, 2, 500))
    mask = np.where(rng.random((500, 100)) < 0.2, 0.0, 1.25)
    work, probs = program.StepWork(prog, 500, holes=False), np.empty((500, 2))
    gradients(prog, *inputs, 0.0, mask, work=work, probs=probs)
    tracemalloc.start()
    try:
        gradients(prog, *inputs, 0.0, mask, work=work, probs=probs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 500 * 100 * 8
    assert peak < 500 * 100 * 8


def _warm_step_peak(prog, data, avail, choice, rows, l2=0.0):
    """tracemalloc's peak over the third `step` of one bound ``rows``-row batch, dropout on."""
    inputs = compile_inputs(prog, data[:rows], avail[:rows], choice[:rows])
    mask = np.where(np.random.default_rng(0).random((rows, prog.hidden_width)) < 0.2, 0.0, 1.25)
    work = program.StepWork(prog, rows, l2=l2)
    b = program.Batch(work, *inputs, np.empty((rows, prog.n_alts)), mask)
    program.step(prog, b, l2, rows)
    program.step(prog, b, l2, rows)
    tracemalloc.start()
    try:
        program.step(prog, b, l2, rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_step_with_l2_allocates_no_more_than_without():
    # 2 * l2 * W once made a temporary per weight tensor: 80,296 B against 41,200 B
    prog, data, avail, choice = _wide_lmnl_instance(seed=3, n=50, width=100, depth=2)
    assert (_warm_step_peak(prog, data, avail, choice, 50, l2=1e-3)
            <= _warm_step_peak(prog, data, avail, choice, 50))


def test_a_warm_nested_step_allocates_no_array():
    # the nested pass once made about ten (50, 3) arrays per step, 11,752 B here; now it
    # adds to the plain logit's step on the same net less than one float per row
    from dataclasses import replace
    nested, data, avail, choice = _featureful_instance(seed=5)
    plain = replace(nested, use_nests=False)
    assert (_warm_step_peak(nested, data, avail, choice, 50)
            < _warm_step_peak(plain, data, avail, choice, 50) + 50 * 8)


@pytest.mark.parametrize("train_net", [True, False])
def test_frozen_net_steps_run_no_net_backward(monkeypatch, train_net):
    from lchoice.numcore import program
    calls = []
    real = program.net_backward

    def spy(*args):
        calls.append(args[1].shape[0])
        return real(*args)

    monkeypatch.setattr(program, "net_backward", spy)
    prog, data, avail, choice = _featureful_instance(seed=6)
    cfg = TrainConfig(epochs=2, batch_size=25, dropout=0.2, seed=3)
    fit = fit_program(prog, data, avail, choice, cfg, train_net=train_net)
    assert fit.status == "ok"
    assert len(calls) == (fit.steps if train_net else 0)


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


def test_fit_program_refuses_no_rows():
    # raised ZeroDivisionError from the trace's mean over the rows
    prog, data, avail, choice = _featureful_instance(seed=15)
    with pytest.raises(ValueError, match=r"data of shape \(0, 6\), .*: the program needs a row"):
        fit_program(prog, data[:0], avail[:0], choice[:0], TrainConfig(epochs=1))


def test_fit_program_refuses_data_narrower_than_the_columns_it_reads():
    # raised IndexError from the non-finite check's column index
    prog, data, avail, choice = _featureful_instance(seed=15)  # reads columns 0 to 5
    with pytest.raises(ValueError, match=r"data of shape \(120, 3\), .* 6 data columns"):
        fit_program(prog, data[:, :3], avail, choice, TrainConfig(epochs=1))


def test_fit_program_refuses_availability_of_another_width():
    # raised numpy's "operands could not be broadcast together" from the step
    prog, data, avail, choice = _featureful_instance(seed=15)  # three alternatives
    choice = np.minimum(choice, 1)
    with pytest.raises(ValueError, match=r"avail of shape \(120, 2\): .* 3 alternatives"):
        fit_program(prog, data, np.ones((120, 2)), choice, TrainConfig(epochs=1))


def test_fit_program_availability_errors_name_the_row():
    prog, data, avail, choice = _featureful_instance(seed=15)  # 120 rows
    avail[37] = 0.0
    avail[41] = 1.0
    avail[41, choice[41]] = 0.0
    with pytest.raises(ValueError, match="row 37: no available alternative"):
        fit_program(prog, data, avail, choice, TrainConfig(epochs=1))
    avail[37] = 1.0
    with pytest.raises(ValueError, match="row 41: chosen alternative is unavailable"):
        fit_program(prog, data, avail, choice, TrainConfig(epochs=1))


@pytest.mark.parametrize("code", [-1, 99])
def test_fit_program_rejects_bad_choice_codes(code):
    # -1 once trained on the last alternative, 99 raised a bare IndexError
    prog, data, avail, choice = _featureful_instance(seed=15)
    choice[7] = code
    with pytest.raises(ValueError, match=rf"row 7: choice {code} is not in \[0, 3\)"):
        fit_program(prog, data, avail, choice, TrainConfig(epochs=1))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fit_program_rejects_nonfinite_inputs(value):
    # a NaN in a read column once came back as a "diverged" fit
    prog, data, avail, choice = _featureful_instance(seed=15)
    data[11, 1] = value  # a linear-term column
    data[9, 4] = value  # a net input column
    with pytest.raises(ValueError, match="row 9: non-finite value in data column 4"):
        fit_program(prog, data, avail, choice, TrainConfig(epochs=1))
    data[9, 4] = 0.0
    with pytest.raises(ValueError, match="row 11: non-finite value in data column 1"):
        fit_program(prog, data, avail, choice, TrainConfig(epochs=1))


def test_fit_program_ignores_unread_columns():
    prog, data, avail, choice = _logit_instance()
    data = np.hstack([data, np.full((data.shape[0], 1), np.nan)])
    assert fit_program(prog, data, avail, choice, TrainConfig(epochs=2)).status == "ok"


def _first_nonfinite_by_argwhere(prog, data):
    """The check as one argwhere over a copy of every column the program reads."""
    cols = np.concatenate([prog.lin_cols, prog.q_cols])
    bad = np.argwhere(~np.isfinite(data[:, cols]))
    return (int(bad[0, 0]), int(cols[bad[0, 1]])) if bad.size else None


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(0, 9),
       cells=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 6),
                                st.sampled_from([np.nan, np.inf, -np.inf])), max_size=8))
def test_first_nonfinite_matches_one_argwhere(rows, cells):
    from dataclasses import replace
    prog = _featureful_instance(seed=15)[0]
    # linear terms read columns 1, 2, 3 and the net 5, 0, 4, in that order; 6 is unread
    prog = replace(prog, term_col=np.array([-1, 3, 1, 2]), q_cols=np.array([5, 0, 4]))
    data = np.random.default_rng(rows).normal(size=(rows, 7))
    for r, c, value in cells:
        if r < rows:
            data[r, c] = value
    assert program.first_nonfinite(prog, data) == _first_nonfinite_by_argwhere(prog, data)


def test_first_nonfinite_reads_one_column_at_a_time():
    # it once copied every column it reads, 0.9 MiB here, to find one cell
    prog = _featureful_instance(seed=15)[0]  # reads 6 columns
    n = 20_000
    data = np.random.default_rng(0).normal(size=(n, 12))
    data[n - 1, 5] = np.nan
    tracemalloc.start()
    try:
        found = program.first_nonfinite(prog, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == (n - 1, 5)
    assert peak <= 3 * n  # two columns' flags, one boolean per row each, are alive at once


def test_active_backend_resolution():
    assert numcore.active_backend() == "numpy"


# ---------------------------------------------------------------------------
# the names the benchmark in perfbench/ reads or wraps

def _perfbench_uses():
    """What perfbench/*.py takes from lchoice, read from its source with ast.

    Returns ``(reads, wraps)``: (owner, name) of every name imported from an
    lchoice module and of every attribute read on one, and (owner, name) of
    every ``tracer.wrap(owner, "name", ...)``, a ``for`` loop's owners each.
    """
    import importlib

    def imported(module, name):
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return getattr(importlib.import_module(module), name, None)

    reads, wraps = [], []
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> lchoice object
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lchoice"):
                for alias in node.names:
                    reads.append((importlib.import_module(node.module), alias.name))
                    bound[alias.asname or alias.name] = imported(node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "lchoice":
                        importlib.import_module(alias.name)
                        bound[alias.asname or "lchoice"] = importlib.import_module(
                            alias.name if alias.asname else "lchoice")

        def owner(expr):  # the lchoice object an expression names, or None
            if isinstance(expr, ast.Name):
                return bound.get(expr.id)
            if isinstance(expr, ast.Attribute) and (base := owner(expr.value)) is not None:
                return getattr(base, expr.attr, None)
            return None

        calls = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (base := owner(node.value)) is not None:
                reads.append((base, node.attr))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "wrap" and getattr(node.func.value, "id", "") == "tracer"):
                calls.append(node)
        owners = {call: [call.args[0]] for call in calls}
        for loop in ast.walk(tree):  # `for owner in (a, b): tracer.wrap(owner, ...)`
            if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple):
                for call in ast.walk(loop):
                    if call in owners and getattr(call.args[0], "id", None) == loop.target.id:
                        owners[call] = loop.iter.elts
        wraps += [(owner(expr), call.args[1].value) for call in calls for expr in owners[call]]
    return reads, wraps


def test_benchmark_contract_names_exist():
    from lchoice import analysis
    for name in numcore.__all__:
        assert hasattr(numcore, name), name
    reads, wraps = _perfbench_uses()
    for owner, name in reads:
        assert hasattr(owner, name), f"{owner.__name__}.{name}"
    # names it once read without a check here
    for module, name in (("analysis", "binary_zoo"), ("estimation", "null_log_likelihood"),
                         ("dataio", "generic_schema"), ("synthgen", "SEMI_SYNTH_CATS"),
                         ("models", "build_model"), ("analysis", "DataSpec")):
        assert (f"lchoice.{module}", name) in {(o.__name__, n) for o, n in reads}, name
    assert len(wraps) >= 15
    for owner, name in wraps:
        # the benchmark wraps class attributes through the class __dict__
        found = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name)
        assert callable(found), f"{owner.__name__}.{name}"
    assert (analysis.DataSpec, "make") in wraps
    # perfbench builds DataSpec("binary", n_train, n_test) by position
    assert [f.name for f in fields(analysis.DataSpec)[:3]] == ["scenario", "n_train", "n_test"]
    # the program attributes the stage replay reads, on a copy rebuilt at another width
    from dataclasses import replace
    prog = _featureful_instance(seed=5)[0]  # width 4, depth 2
    rng = np.random.default_rng(0)
    wide = replace(prog, w_in=rng.normal(size=(3, 7)), w_hidden=rng.normal(size=(1, 7, 7)),
                   b_hidden=np.zeros((2, 7)), w_out=rng.normal(size=(7, 3)))
    assert (wide.hidden_width, wide.has_net, wide.depth) == (7, True, 2)
    bare = replace(prog, q_cols=np.zeros(0, dtype=np.int64), w_in=np.zeros((0, 0)),
                   w_hidden=np.zeros((0, 0, 0)), b_hidden=np.zeros((0, 0)),
                   w_out=np.zeros((0, 3)))
    assert (bare.hidden_width, bare.has_net, bare.depth) == (0, False, 0)
    for name in ("q_cols", "term_col", "mu_free", "n_params", "use_nests", "mu"):
        assert np.array_equal(getattr(wide, name), getattr(prog, name)), name


# public names with no reader in src/, perfbench/ or README, each with its reason
_TEST_ONLY_EXPORTS = {
    # the loss that the finite-difference oracle in tests/fd_util.py differentiates;
    # it shares no code with the gradient it checks
    "loss_value",
}


def test_public_names_have_readers():
    # an export that only tests call is a second copy of what runs; read by the AST,
    # since names such as `accuracy` also appear in docstrings
    import lchoice
    package = Path(lchoice.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names} | set(numcore.__all__)
    read = set()
    for path in package.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    reads, wraps = _perfbench_uses()
    read.update(name for _, name in reads + wraps)
    readme = (package.parents[1] / "README.md").read_text()
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    read.update(name for name in exported if re.search(rf"\b{name}\b", library_use))
    unread = sorted(exported - read - _TEST_ONLY_EXPORTS)
    assert not unread, f"exported with no reader: {unread}"
    assert _TEST_ONLY_EXPORTS <= exported - read


def test_benchmark_stage_replay_runs():
    # the stage replay of `perfbench/run.py --trace 1`, loaded from its file
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "stages.py"
    spec = importlib.util.spec_from_file_location("perfbench_stages", path)
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    prog, data, avail, choice = _featureful_instance(seed=5)  # nested, with a net
    cfg = TrainConfig(epochs=1, batch_size=50, dropout=0.2, seed=0)
    replay = stages.replay_stages(prog, data, avail, choice, cfg, min_steps=1)
    assert replay["shapes"] == [(20, 6), (50, 6)]
    assert all(replay[f"{k}_us"] >= 0.0 for k in stages.STAGES)
    counts = stages.step_counts(prog, data.shape[0], data.shape[1], cfg)
    # 120 permutation keys and 120 rows of 4 mask uniforms over 3 steps
    assert counts["prng_draws_per_step"] == 200.0
    assert counts["flops_per_step"] > 0 and counts["bytes_per_step"] > 0
