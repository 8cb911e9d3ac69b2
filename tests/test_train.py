import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import dmff
from crossfuse import tensor_core as tc
from crossfuse import train as tr
from crossfuse.dmff import DmffConfig
from crossfuse.gradcheck import grad_check
from crossfuse.icfe import stacked_spec
from crossfuse.synth import SyntheticPairSpec, gen_synthetic_pair
from conftest import fd_gradient, rel_err

# every parameter the optimizer must not decay, in any mode, variant or
# stack: the residual coefficients, the pooling blends and the positional
# tables
DECAY_EXEMPT = frozenset(
    [f"{prefix}.{leaf}"
     for prefix in ("cfe", "cfe_r", "cfe_t", "block0.cfe_r", "block0.cfe_t",
                    "block1.cfe_r", "block1.cfe_t")
     for leaf in ("alpha", "beta", "gamma", "delta")]
    + ["sfs_r.lambda_raw", "sfs_t.lambda_raw", "pe_r.table", "pe_t.table"])


def small_cfg(**kw):
    base = dict(
        steps=10,
        seed=7,
        dmff=DmffConfig(heads=2, ffn_hidden=16),
        synth=SyntheticPairSpec(h=4, w=4, c=8, seed=7),
    )
    base.update(kw)
    return tr.TrainConfig(**base)


def test_cosine_schedule_endpoints_and_midpoint():
    assert tr.cosine_lr(0, 100, 0.01) == 0.01
    assert abs(tr.cosine_lr(100, 100, 0.01)) < 1e-18
    assert abs(tr.cosine_lr(50, 100, 0.01) - 0.005) < 1e-18
    # nonzero floor
    assert tr.cosine_lr(0, 10, 0.01, lr_min=0.002) == 0.01
    assert abs(tr.cosine_lr(10, 10, 0.01, lr_min=0.002) - 0.002) < 1e-18


def test_zero_learning_rate_freezes_loss():
    result = tr.train_toy(small_cfg(lr0=0.0))
    assert len(set(result.losses)) == 1


def test_loss_decreases_on_toy_task():
    result = tr.train_toy(small_cfg(steps=60))
    assert result.losses[-1] < result.losses[0]


def test_determinism_across_runs():
    r1 = tr.train_toy(small_cfg(steps=25))
    r2 = tr.train_toy(small_cfg(steps=25))
    assert r1.losses == r2.losses
    w1 = dict(r1.weights.named_tensors())
    w2 = dict(r2.weights.named_tensors())
    for name in w1:
        npt.assert_array_equal(w1[name].data, w2[name].data)


def test_specs_declare_exactly_the_decay_exempt_leaves():
    specs = [dmff.param_spec(DmffConfig(mode=mode, heads=2, ffn_hidden=16, shrink_variant=v),
                             4, 4, 8)
             for mode in "abcde" for v in ("pool", "conv")]
    specs.append(stacked_spec(8, 16, blocks=2))
    seen = set()
    for spec in specs:
        exempt = {name for name, p in spec.items() if not p.decay}
        assert exempt == DECAY_EXEMPT & set(spec)
        seen |= exempt
    assert seen == DECAY_EXEMPT


def test_decay_shrinks_only_non_exempt_tensors():
    # zero gradients injected into the real update: with momentum off, a
    # decayed tensor shrinks by (1 - lr*wd) per step, exempt ones hold
    cfg = small_cfg()
    lr, wd = 0.5, 0.1
    wts = dmff.init_dmff_weights(cfg.dmff, 4, 4, 8, np.random.default_rng(3),
                                 dtype=np.float32)
    decayed = {n for n, p in dmff.param_spec(cfg.dmff, 4, 4, 8).items() if p.decay}
    params = dict(wts.named_tensors())
    assert 0 < len(DECAY_EXEMPT & set(params)) < len(params)
    velocity = {name: np.zeros(t.shape, dtype=t.dtype) for name, t in params.items()}
    empty = tc.GradRecord()
    for step in range(3):
        before = params
        params = tr.sgd_update(params, velocity, empty, lr=lr, momentum=0.0,
                               weight_decay=wd, decayed=decayed)
        for name in params:
            if name in DECAY_EXEMPT:
                npt.assert_array_equal(params[name].data, before[name].data)
            else:
                npt.assert_allclose(
                    params[name].data,
                    before[name].data * np.float32(1 - lr * wd),
                    rtol=1e-6,
                )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_aborts_with_diagnostic():
    with pytest.raises(tr.TrainingDivergedError, match="step"):
        tr.train_toy(small_cfg(lr0=1e6, steps=40))


@pytest.mark.parametrize("name, value", [
    ("lr0", math.inf), ("lr0", math.nan), ("lr_min", math.inf), ("lr_min", math.nan),
    ("weight_decay", math.inf), ("weight_decay", math.nan),
])
def test_non_finite_rates_are_rejected(name, value):
    with pytest.raises(tc.ConfigurationError, match=name):
        small_cfg(**{name: value})


def test_steps_are_bounded():
    assert small_cfg(steps=tr.MAX_STEPS).steps == tr.MAX_STEPS
    for bad in (0, tr.MAX_STEPS + 1, 10 ** 12):
        with pytest.raises(tc.ConfigurationError, match="steps"):
            small_cfg(steps=bad)


@pytest.mark.parametrize("mode", ["f_rgb", "f_thermal"])
def test_modes_without_learnables_are_refused(mode):
    # the one objective refuses them, so training stops before its first
    # step and the gradient check before its first perturbed fuse
    cfg = small_cfg(dmff=DmffConfig(mode=mode))
    steps = []
    with pytest.raises(tc.ConfigurationError, match=f"mode '{mode}' has no learnables"):
        tr.train_toy(cfg, step_callback=lambda *step: steps.append(step))
    assert steps == []
    with pytest.raises(tc.ConfigurationError, match=f"mode '{mode}' has no learnables"):
        grad_check(cfg.dmff, synth=cfg.synth)


@pytest.mark.parametrize("mode", ["a", "d", "e"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_and_grads_is_the_taped_step(mode, dtype):
    cfg = small_cfg(steps=1, dmff=DmffConfig(mode=mode, heads=2, ffn_hidden=16))
    spec = cfg.synth
    wts = dmff.init_dmff_weights(cfg.dmff, spec.h, spec.w, spec.c,
                                 np.random.default_rng(cfg.seed), dtype=dtype)
    f_r, f_t, target = gen_synthetic_pair(spec, dtype=dtype)
    loss, record = tr.loss_and_grads(f_r, f_t, target, cfg.dmff, wts)

    tape = tc.Tape()
    tape.watch_all(wts.named_tensors())
    with tc.record_on(tape):
        by_hand = tr.squared_error_loss(dmff.dmff_fuse(f_r, f_t, cfg.dmff, wts).primary, target)
    expected = tc.backward(tc.scalar(1.0, dtype=dtype), tape, by_hand)
    assert loss == by_hand.item()
    assert list(record) == list(expected)
    for name, g in expected.items():
        assert record[name].dtype == dtype
        assert record[name].data.tobytes() == g.data.tobytes()
    if dtype == np.float32:  # train_toy's precision
        assert tr.train_toy(cfg).losses == [loss]


def test_a_tied_parameter_gets_its_gradient_under_every_name():
    # one tensor under two names: each name gets the derivative of the loss
    # along the tied weight, as GradRecord promises for every name that
    # takes part
    cfg = DmffConfig(mode="d", heads=2, ffn_hidden=16)
    spec = SyntheticPairSpec(h=4, w=4, c=8, seed=7)
    wts = dmff.init_dmff_weights(cfg, spec.h, spec.w, spec.c, np.random.default_rng(7),
                                 dtype=np.float64)
    f_r, f_t, target = gen_synthetic_pair(spec, dtype=np.float64)

    def tie(alpha):
        return dmff.replace_parameters(wts, {"cfe_r.alpha": alpha, "cfe_t.alpha": alpha})

    def loss(alpha):
        return tr.squared_error_loss(dmff.dmff_fuse(f_r, f_t, cfg, tie(alpha)).primary,
                                     target).item()

    alpha = wts.tensors["cfe_r.alpha"]
    _, record = tr.loss_and_grads(f_r, f_t, target, cfg, tie(alpha))
    assert sorted(record) == sorted(wts.tensors)
    assert record["cfe_t.alpha"].data.tobytes() == record["cfe_r.alpha"].data.tobytes()
    assert rel_err(record["cfe_r.alpha"].data, fd_gradient(loss, alpha)) < 1e-6


def test_non_finite_gradient_aborts_naming_the_first_parameter(monkeypatch):
    # a finite loss with a non-finite gradient: the step must not be taken
    real_backward = tc.backward
    calls = []

    def poisoned_backward(*args):
        grads = real_backward(*args)
        calls.append(1)
        if len(calls) == 3:
            for name in ("nin.b", "cfe_t.ffn_w1"):  # nin.b comes later in spec order
                bad = np.array(grads[name].data)
                bad.reshape(-1)[0] = np.inf if name == "nin.b" else np.nan
                grads[name] = tc.Tensor(bad)
        return grads

    monkeypatch.setattr(tc, "backward", poisoned_backward)
    with pytest.raises(tr.TrainingDivergedError,
                       match=r"gradient of 'cfe_t.ffn_w1' became non-finite at step 2"):
        tr.train_toy(small_cfg(steps=5))
    assert len(calls) == 3


def test_trace_file_round_trips(tmp_path):
    result = tr.train_toy(small_cfg(steps=5))
    path = tmp_path / "trace.csv"
    tr.write_trace(path, result)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,lr,loss"
    assert len(lines) == 6
    step, lr, loss = lines[1].split(",")
    assert int(step) == 0
    assert float(lr) == result.lrs[0]
    assert float(loss) == result.losses[0]


def test_squared_error_loss_matches_numpy(rng):
    a = rng.standard_normal((3, 3, 2))
    b = rng.standard_normal((3, 3, 2))
    loss = tr.squared_error_loss(tc.Tensor(a, dtype=np.float64),
                                 tc.Tensor(b, dtype=np.float64))
    assert abs(loss.item() - ((a - b) ** 2).mean()) < 1e-12
