"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Dims used throughout unless a criterion says otherwise:
8x8 maps, 16 channels, 8 heads, hidden 64, window 2, one iteration,
dual unshared mode.
"""

import dataclasses
import time

import numpy as np
import numpy.testing as npt

from crossfuse import (cfe, complexity_audit as audit, dmff, icfe, sfs,
                       tensor_core as tc, token_codec as codec, weights_io)
from crossfuse.dmff import DmffConfig
from crossfuse.gradcheck import grad_check
from crossfuse.synth import SyntheticPairSpec
from crossfuse.train import TrainConfig, train_toy, write_trace
from conftest import attention_probs


def note(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_gradient_fidelity():
    start = time.time()
    report = grad_check(DmffConfig(), synth=SyntheticPairSpec(seed=0), seed=0,
                        eps=1e-5, tol=1e-4, min_samples=20)
    elapsed = time.time() - start
    assert len(report.checks) == 30
    sizes = {n: t.size for n, t in dmff.init_dmff_weights(
        DmffConfig(), 8, 8, 16, np.random.default_rng(0), dtype=np.float64
    ).named_tensors()}
    # 20 coordinates sampled wherever the tensor has that many
    assert all(c.coords_checked == min(20, sizes[c.name]) for c in report.checks)
    note("1 gradient fidelity (max rel err "
         f"{report.worst().max_rel_err:.2e}, {elapsed:.1f}s)",
         report.passed and elapsed < 60.0)


def test_criterion_2_attention_cost_ratio_and_counters():
    ok = True
    for t in (4, 16, 64):
        for c in (8, 16):
            ours = audit.attention_cost("ours", t, c).evaluate(t, c)
            cft = audit.attention_cost("cft", t, c).evaluate(t, c)
            ok &= 2 * ours == cft
            for variant, symbolic in (("ours", ours), ("cft", cft)):
                counter = audit.counted_pass(variant, t, c, 1)
                qk, av = counter.total("attention_qk"), counter.total("attention_av")
                ok &= qk + av == symbolic
                ok &= qk == av == symbolic // 2
    note("2 attention cost ratio 1/2 and exact runtime counters", ok)


def test_criterion_3_shrink_scaling():
    h = w = 8
    c, hidden = 16, 64
    rng = np.random.default_rng(0)
    fmap = tc.Tensor(rng.standard_normal((h, w, c)), dtype=np.float64)
    tokens = {}
    for window in (1, 2):  # token shrink factors 1 and 4
        pool = tc.init_tensors(sfs.shrink_spec("pool", window, c), None, np.float64)
        out = sfs.shrink_pool(fmap, window, pool)
        tokens[window * window] = out.shape[0] * out.shape[1]
    assert tokens[1] == 64 and tokens[4] == 16
    counters = {s: audit.counted_pass("ours", t, c, hidden) for s, t in tokens.items()}
    att = {s: n.total("attention_qk", "attention_av") for s, n in counters.items()}
    ffn = {s: n.total("ffn") for s, n in counters.items()}
    ok = att[4] * 16 == att[1] and ffn[4] * 4 == ffn[1]
    note("3 shrink scaling: attention 1/16, ffn 1/4 at S=4", ok)


def test_criterion_4_parameter_scaling():
    counts = {audit.param_count(dmff.init_dmff_weights(
        DmffConfig(iterations=n), 8, 8, 16, np.random.default_rng(1), dtype=np.float64
    ).tensors) for n in (0, 1, 2, 3, 10)}

    def stacked_count(blocks):
        spec = icfe.stacked_spec(16, 64, blocks)
        return audit.param_count(tc.init_tensors(spec, np.random.default_rng(1), np.float64))

    one_block = stacked_count(1)
    stacked_ok = all(stacked_count(k) == k * one_block for k in (1, 2, 3, 4, 6, 8, 10))
    note("4 parameter sharing: constant over iterations, linear over blocks",
         len(counts) == 1 and stacked_ok)


def test_criterion_5_identity_bypass():
    rng = np.random.default_rng(2)
    params = dict(tc.init_tensors(cfe.cfe_spec(16, 64), rng, np.float64),
                  alpha=tc.scalar(0.0, np.float64), delta=tc.scalar(0.0, np.float64))
    target = tc.Tensor(rng.standard_normal((16, 16)), dtype=np.float64)
    aux = tc.Tensor(rng.standard_normal((16, 16)), dtype=np.float64)
    out = cfe.cfe_forward(target, aux, params, 8)
    token_ok = np.array_equal(out.data, target.data)

    cfg_d = DmffConfig(mode="d", shrink_window=1)
    wts_d = dmff.init_dmff_weights(cfg_d, 8, 8, 16, rng, dtype=np.float64)
    mapping = {}
    for name, _ in wts_d.named_tensors():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("alpha", "delta"):
            mapping[name] = tc.scalar(0.0, dtype=np.float64)
        elif leaf in ("beta", "gamma"):
            mapping[name] = tc.scalar(1.0, dtype=np.float64)
    mapping["pe_r.table"] = tc.zeros((64, 16), dtype=np.float64)
    mapping["pe_t.table"] = tc.zeros((64, 16), dtype=np.float64)
    wts_d = dmff.replace_parameters(wts_d, mapping)
    cfg_e = DmffConfig(mode="e")
    wts_e = dmff.DmffWeights(cfg=cfg_e, height=8, width=8, channels=16,
                             tensors={n: wts_d.tensors[n] for n in ("nin.w", "nin.b")})
    f_r = tc.Tensor(rng.standard_normal((8, 8, 16)), dtype=np.float64)
    f_t = tc.Tensor(rng.standard_normal((8, 8, 16)), dtype=np.float64)
    out_d = dmff.dmff_fuse(f_r, f_t, cfg_d, wts_d)
    out_e = dmff.dmff_fuse(f_r, f_t, cfg_e, wts_e)
    mode_ok = np.max(np.abs(out_d.primary.data - out_e.primary.data)) < 1e-9
    note("5 identity bypass: bit-exact block, mode d == mode e", token_ok and mode_ok)


def test_criterion_6_attention_invariants():
    rng = np.random.default_rng(3)
    params = tc.init_tensors(cfe.cfe_spec(16, 64), rng, np.float64)
    q = tc.Tensor(rng.standard_normal((16, 16)) * 5, dtype=np.float64)
    kv = tc.Tensor(rng.standard_normal((16, 16)) * 5, dtype=np.float64)
    weights = attention_probs(tc.matmul(q, params["w_q"]), tc.matmul(kv, params["w_k"]), 8)
    rows_ok = all(
        np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-9 for w in weights
    ) and len(weights) == 8

    target = tc.Tensor(rng.standard_normal((16, 16)), dtype=np.float64)
    aux = tc.Tensor(rng.standard_normal((16, 16)), dtype=np.float64)
    base = cfe.cross_attention(aux, target, params, 8)
    perm = rng.permutation(16)
    shuffled = tc.Tensor(target.data[perm], dtype=np.float64)
    permuted = cfe.cross_attention(aux, shuffled, params, 8)
    perm_ok = np.max(np.abs(base.data - permuted.data)) < 1e-9
    note("6 attention invariants: row sums, kv-permutation invariance",
         rows_ok and perm_ok)


def test_criterion_7_round_trips(tmp_path):
    rng = np.random.default_rng(4)
    fmap = tc.Tensor(rng.standard_normal((8, 8, 16)), dtype=np.float32)
    token_ok = np.array_equal(codec.detokenize(codec.tokenize(fmap), 8, 8).data, fmap.data)

    wts = dmff.init_dmff_weights(DmffConfig(), 8, 8, 16, rng, dtype=np.float32)
    path = tmp_path / "w.icaf"
    weights_io.save_weights(wts, path)
    back = weights_io.load_weights(path)
    before, after = dict(wts.named_tensors()), dict(back.named_tensors())
    weights_ok = sorted(before) == sorted(after) and all(
        np.array_equal(before[n].data, after[n].data) for n in before
    )
    note("7 round trips: tokenize/detokenize and save/load bit-exact",
         token_ok and weights_ok)


def test_criterion_8_toy_training(tmp_path):
    start = time.time()
    cfg = TrainConfig()  # seed 42, 200 steps, default pipeline
    result = train_toy(cfg)
    rerun = train_toy(cfg)
    elapsed = time.time() - start
    ratio = result.losses[-1] / result.losses[0]
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(t1, result)
    write_trace(t2, rerun)
    w1, w2 = tmp_path / "a.icaf", tmp_path / "b.icaf"
    weights_io.save_weights(result.weights, w1)
    weights_io.save_weights(rerun.weights, w2)
    deterministic = (t1.read_bytes() == t2.read_bytes()
                     and w1.read_bytes() == w2.read_bytes())
    note(f"8 toy training: loss ratio {ratio:.3f} <= 0.5, byte-identical rerun "
         f"({elapsed:.1f}s)",
         ratio <= 0.5 and deterministic and elapsed < 300.0)


def test_criterion_9_modality_duplication():
    rng = np.random.default_rng(5)
    f_r = tc.Tensor(rng.standard_normal((8, 8, 16)), dtype=np.float32)
    f_t = tc.Tensor(rng.standard_normal((8, 8, 16)), dtype=np.float32)
    ok = True
    for duplication, perturb_rgb in (("rgb_both", False), ("thermal_both", True)):
        cfg = DmffConfig(mode="d", input_duplication=duplication)
        wts = dmff.init_dmff_weights(cfg, 8, 8, 16, rng, dtype=np.float32)
        base = dmff.dmff_fuse(f_r, f_t, cfg, wts)
        noise = tc.Tensor(rng.standard_normal((8, 8, 16)) * 7, dtype=np.float32)
        if perturb_rgb:
            moved = dmff.dmff_fuse(noise, f_t, cfg, wts)
        else:
            moved = dmff.dmff_fuse(f_r, noise, cfg, wts)
        ok &= base.primary.data.tobytes() == moved.primary.data.tobytes()
    note("9 duplication modes ignore the unused input bit-exactly", ok)


def test_criterion_10_mixed_pooling_endpoints():
    rng = np.random.default_rng(6)
    fmap = tc.Tensor(rng.standard_normal((8, 8, 16)), dtype=np.float64)
    avg = tc.pool2d(fmap, 2, "avg").data
    mx = tc.pool2d(fmap, 2, "max").data
    at_plus = sfs.shrink_pool(fmap, 2, {"lambda_raw": tc.scalar(20.0, np.float64)})
    at_minus = sfs.shrink_pool(fmap, 2, {"lambda_raw": tc.scalar(-20.0, np.float64)})
    endpoints_ok = (np.max(np.abs(at_plus.data - avg)) < 1e-6
                    and np.max(np.abs(at_minus.data - mx)) < 1e-6)

    raw = tc.scalar(0.4, dtype=np.float64)
    tape = tc.Tape()
    tape.watch(raw, "lambda_raw")
    with tc.record_on(tape):
        out = sfs.shrink_pool(fmap, 2, {"lambda_raw": raw})
    # sum(out^2) seeds `out` with its adjoint, 2 out
    analytic = tc.backward(tc.Tensor(out.data + out.data), tape, out)["lambda_raw"].item()
    eps = 1e-5

    def loss_at(v):
        out = sfs.shrink_pool(fmap, 2, {"lambda_raw": tc.scalar(v, np.float64)})
        return float((out.data ** 2).sum())

    numeric = (loss_at(0.4 + eps) - loss_at(0.4 - eps)) / (2 * eps)
    grad_ok = abs(analytic - numeric) / max(abs(analytic), abs(numeric)) < 1e-4
    note("10 mixed pooling: endpoint blends and lambda gradient", endpoints_ok and grad_ok)
