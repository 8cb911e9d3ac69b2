import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import train as tr
from crossfuse.dmff import DmffConfig
from crossfuse.synth import SyntheticPairSpec


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


def test_decay_exemption_predicate():
    assert tr.is_decay_exempt("cfe_r.alpha")
    assert tr.is_decay_exempt("cfe.delta")
    assert tr.is_decay_exempt("sfs_t.lambda_raw")
    assert tr.is_decay_exempt("pe_r.table")
    assert not tr.is_decay_exempt("cfe_r.w_q")
    assert not tr.is_decay_exempt("nin.b")


def test_decay_shrinks_only_non_exempt_tensors():
    # zero gradients injected into the real update: with momentum off, a
    # decayed tensor shrinks by (1 - lr*wd) per step, exempt ones hold
    from crossfuse import dmff as dmff_mod
    from crossfuse import tensor_core as tc

    cfg = small_cfg()
    lr, wd = 0.5, 0.1
    wts = dmff_mod.init_dmff_weights(cfg.dmff, 4, 4, 8, np.random.default_rng(3),
                                     dtype=np.float32)
    params = dict(wts.named_tensors())
    velocity = {name: np.zeros(t.shape, dtype=t.dtype) for name, t in params.items()}
    empty = tc.GradRecord()
    for step in range(3):
        before = params
        params = tr.sgd_update(params, velocity, empty, lr=lr, momentum=0.0,
                               weight_decay=wd)
        for name in params:
            if tr.is_decay_exempt(name):
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


def test_non_finite_gradient_aborts_naming_the_first_parameter(monkeypatch):
    # a finite loss with a non-finite gradient: the step must not be taken
    from crossfuse import tensor_core as tc

    real_backward = tc.backward
    calls = []

    def poisoned_backward(*args):
        grads = real_backward(*args)
        calls.append(1)
        if len(calls) == 3:
            for name in ("nin.b", "cfe_t.ffn_w1"):  # nin.b comes later in spec order
                bad = np.array(grads[name].data)
                bad.reshape(-1)[0] = np.inf if name == "nin.b" else np.nan
                grads.entries[name] = tc.Tensor(bad)
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
    from crossfuse import tensor_core as tc

    a = rng.standard_normal((3, 3, 2))
    b = rng.standard_normal((3, 3, 2))
    loss = tr.squared_error_loss(tc.Tensor(a, dtype=np.float64),
                                 tc.Tensor(b, dtype=np.float64))
    assert abs(loss.item() - ((a - b) ** 2).mean()) < 1e-12
