import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import dmff, tensor_core as tc
from crossfuse.icfe import IcfeParams
from conftest import fd_gradient, rel_err


def make_inputs(rng, h=4, w=4, c=8):
    f_r = tc.Tensor(rng.standard_normal((h, w, c)), dtype=np.float64)
    f_t = tc.Tensor(rng.standard_normal((h, w, c)), dtype=np.float64)
    return f_r, f_t


def make_cfg(**kw):
    base = dict(shrink_variant="pool", shrink_window=2, heads=2, ffn_hidden=16,
                iterations=1, mode="d", input_duplication="none")
    base.update(kw)
    return dmff.DmffConfig(**base)


def build(cfg, rng, h=4, w=4, c=8):
    return dmff.init_dmff_weights(cfg, h, w, c, rng, dtype=np.float64)


def coeff_overrides(wts, a, b, g, d):
    mapping = {}
    for name, _ in wts.named_tensors():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("alpha", "beta", "gamma", "delta"):
            value = {"alpha": a, "beta": b, "gamma": g, "delta": d}[leaf]
            mapping[name] = tc.scalar(value, dtype=np.float64)
    return mapping


# --- nin fusion ------------------------------------------------------------------


def test_nin_selector_returns_first_input(rng):
    f_r, f_t = make_inputs(rng, 3, 3, 4)
    w = tc.Tensor(np.vstack([np.eye(4), np.zeros((4, 4))]), dtype=np.float64)
    out = dmff.nin_fuse(f_r, f_t, w, tc.zeros((4,), dtype=np.float64))
    npt.assert_allclose(out.data, f_r.data, atol=1e-12)


def test_nin_averaging_construction(rng):
    f_r, f_t = make_inputs(rng, 3, 3, 4)
    w = tc.Tensor(np.vstack([0.5 * np.eye(4), 0.5 * np.eye(4)]), dtype=np.float64)
    out = dmff.nin_fuse(f_r, f_t, w, tc.zeros((4,), dtype=np.float64))
    npt.assert_allclose(out.data, 0.5 * (f_r.data + f_t.data), atol=1e-12)


def test_nin_against_per_pixel_oracle(rng):
    f_r, f_t = make_inputs(rng, 3, 3, 4)
    w = rng.standard_normal((8, 4))
    b = rng.standard_normal(4)
    out = dmff.nin_fuse(f_r, f_t, tc.Tensor(w, dtype=np.float64),
                        tc.Tensor(b, dtype=np.float64))
    for i in range(3):
        for j in range(3):
            vec = np.concatenate([f_r.data[i, j], f_t.data[i, j]])
            expected = vec @ w + b
            assert np.max(np.abs(out.data[i, j] - expected)) < 1e-12


def test_nin_shape_mismatch(rng):
    f_r = tc.Tensor(rng.standard_normal((3, 3, 4)), dtype=np.float64)
    f_t = tc.Tensor(rng.standard_normal((3, 4, 4)), dtype=np.float64)
    with pytest.raises(tc.DimensionError):
        dmff.nin_fuse(f_r, f_t, tc.Tensor(np.zeros((8, 4)), dtype=np.float64),
                      tc.zeros((4,), dtype=np.float64))


# --- pipeline modes -----------------------------------------------------------------


def test_mode_e_with_averaging_weights_is_elementwise_mean(rng):
    cfg = make_cfg(mode="e")
    f_r, f_t = make_inputs(rng)
    wts = build(cfg, rng)
    w = tc.Tensor(np.vstack([0.5 * np.eye(8), 0.5 * np.eye(8)]), dtype=np.float64)
    wts.nin_w, wts.nin_b = w, tc.zeros((8,), dtype=np.float64)
    out = dmff.dmff_fuse(f_r, f_t, cfg, wts)
    npt.assert_allclose(out.primary.data, 0.5 * (f_r.data + f_t.data), atol=1e-12)


def test_mode_d_identity_bypass_matches_mode_e(rng):
    # window 1, coefficients (0,1,1,0), zero embeddings: the attention stage
    # must reduce to the identity and leave only the fusion projection
    cfg_d = make_cfg(mode="d", shrink_window=1)
    wts_d = build(cfg_d, rng)
    mapping = coeff_overrides(wts_d, 0.0, 1.0, 1.0, 0.0)
    mapping["pe_r.table"] = tc.zeros((16, 8), dtype=np.float64)
    mapping["pe_t.table"] = tc.zeros((16, 8), dtype=np.float64)
    wts_d = dmff.replace_parameters(wts_d, mapping)

    cfg_e = make_cfg(mode="e")
    wts_e = dmff.DmffWeights(cfg=cfg_e, height=4, width=4, channels=8,
                             nin_w=wts_d.nin_w, nin_b=wts_d.nin_b)
    f_r, f_t = make_inputs(rng)
    out_d = dmff.dmff_fuse(f_r, f_t, cfg_d, wts_d)
    out_e = dmff.dmff_fuse(f_r, f_t, cfg_e, wts_e)
    assert np.max(np.abs(out_d.primary.data - out_e.primary.data)) < 1e-9


def test_mode_a_against_staged_composition_oracle(rng):
    cfg = make_cfg(mode="a", shrink_window=2, heads=2, ffn_hidden=16, iterations=1)
    wts = build(cfg, rng)
    f_r, f_t = make_inputs(rng)
    got = dmff.dmff_fuse(f_r, f_t, cfg, wts)

    # independent numpy re-implementation of every stage
    def np_mixed_pool(x, s, raw):
        h, w, c = x.shape
        win = x.reshape(h // s, s, w // s, s, c)
        avg = win.mean(axis=(1, 3))
        mx = win.max(axis=(1, 3))
        lam = 1.0 / (1.0 + np.exp(-raw))
        return lam * avg + (1.0 - lam) * mx

    def np_cfe(target, aux, p):
        c = target.shape[1]
        d = c // p.heads
        q = aux @ p.w_q.data
        k = target @ p.w_k.data
        v = target @ p.w_v.data
        z = np.zeros_like(target)
        for j in range(p.heads):
            qj, kj, vj = (m[:, j * d:(j + 1) * d] for m in (q, k, v))
            scores = qj @ kj.T / np.sqrt(d)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            z[:, j * d:(j + 1) * d] = probs @ vj
        t_prime = p.alpha.item() * (z @ p.w_o.data) + p.beta.item() * target
        hidden = np.maximum(t_prime @ p.ffn_w1.data + p.ffn_b1.data, 0.0)
        f = hidden @ p.ffn_w2.data + p.ffn_b2.data
        return p.gamma.item() * t_prime + p.delta.item() * f

    def np_bilinear(x, h_out, w_out):
        h, w, c = x.shape
        out = np.zeros((h_out, w_out, c))
        for i in range(h_out):
            for j in range(w_out):
                sy = min(max((i + 0.5) * h / h_out - 0.5, 0.0), h - 1.0)
                sx = min(max((j + 0.5) * w / w_out - 0.5, 0.0), w - 1.0)
                y0, x0 = min(int(sy), h - 1), min(int(sx), w - 1)
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                fy, fx = sy - y0, sx - x0
                out[i, j] = ((1 - fy) * (1 - fx) * x[y0, x0] + (1 - fy) * fx * x[y0, x1]
                             + fy * (1 - fx) * x[y1, x0] + fy * fx * x[y1, x1])
        return out

    sr = np_mixed_pool(f_r.data, 2, wts.sfs_r.lambda_raw.item())
    st = np_mixed_pool(f_t.data, 2, wts.sfs_t.lambda_raw.item())
    t_r = sr.reshape(4, 8) + wts.pe_r.table.data
    t_t = st.reshape(4, 8) + wts.pe_t.table.data
    enhanced = np_cfe(t_r, t_t, wts.icfe.cfe_r)
    expected = np_bilinear(enhanced.reshape(2, 2, 8), 4, 4)
    assert np.max(np.abs(got.primary.data - expected)) < 1e-9


def test_output_extent_always_matches_input(rng):
    f_r, f_t = make_inputs(rng, 4, 8, 8)
    for mode in dmff.MODES:
        for s in (1, 2):
            cfg = make_cfg(mode=mode, shrink_window=s)
            wts = dmff.init_dmff_weights(cfg, 4, 8, 8, rng, dtype=np.float64)
            out = dmff.dmff_fuse(f_r, f_t, cfg, wts)
            assert out.primary.shape == (4, 8, 8), (mode, s)


def test_rgb_duplication_ignores_thermal_input(rng):
    cfg = make_cfg(mode="d", input_duplication="rgb_both")
    wts = build(cfg, rng)
    f_r, f_t = make_inputs(rng)
    perturbed = tc.Tensor(f_t.data + rng.standard_normal(f_t.shape), dtype=np.float64)
    out1 = dmff.dmff_fuse(f_r, f_t, cfg, wts)
    out2 = dmff.dmff_fuse(f_r, perturbed, cfg, wts)
    npt.assert_array_equal(out1.primary.data, out2.primary.data)


def test_thermal_duplication_ignores_rgb_input(rng):
    cfg = make_cfg(mode="b", input_duplication="thermal_both")
    wts = build(cfg, rng)
    f_r, f_t = make_inputs(rng)
    perturbed = tc.Tensor(f_r.data * 3.0 + 1.0, dtype=np.float64)
    out1 = dmff.dmff_fuse(f_r, f_t, cfg, wts)
    out2 = dmff.dmff_fuse(perturbed, f_t, cfg, wts)
    npt.assert_array_equal(out1.primary.data, out2.primary.data)


def test_shared_and_copied_unshared_agree_on_identical_branches(rng):
    cfg_c = make_cfg(mode="c")
    wts_c = build(cfg_c, rng)
    cfg_d = make_cfg(mode="d")
    shared_set = wts_c.icfe.cfe_r
    wts_d = dmff.DmffWeights(
        cfg=cfg_d, height=4, width=4, channels=8,
        icfe=IcfeParams(shared_set, dataclasses.replace(shared_set),
                        shared=False, iterations=1),
        pe_r=wts_c.pe_r, pe_t=wts_c.pe_r,
        sfs_r=wts_c.sfs_r, sfs_t=wts_c.sfs_r,
        nin_w=wts_c.nin_w, nin_b=wts_c.nin_b,
    )
    wts_c.pe_t = wts_c.pe_r
    wts_c.sfs_t = wts_c.sfs_r
    f_r, _ = make_inputs(rng)
    out_c = dmff.dmff_fuse(f_r, f_r, cfg_c, wts_c)
    out_d = dmff.dmff_fuse(f_r, f_r, cfg_d, wts_d)
    npt.assert_array_equal(out_c.primary.data, out_d.primary.data)


def test_mode_config_weight_consistency_enforced(rng):
    cfg_c = make_cfg(mode="c")
    wts_c = build(cfg_c, rng)
    cfg_d = make_cfg(mode="d")
    f_r, f_t = make_inputs(rng)
    with pytest.raises(tc.ConfigurationError):
        dmff.dmff_fuse(f_r, f_t, cfg_d, wts_c)


def test_mode_e_weights_carry_only_fusion_tensors(rng):
    wts = build(make_cfg(mode="e"), rng)
    names = [n for n, _ in wts.named_tensors()]
    assert names == ["nin.w", "nin.b"]
    for mode in ("a", "b", "f_rgb", "f_thermal"):
        wts = build(make_cfg(mode=mode), rng)
        assert all(not n.startswith("nin.") for n, _ in wts.named_tensors())


def test_end_to_end_gradients_match_finite_differences(rng):
    cfg = make_cfg(mode="d")
    wts = build(cfg, rng)
    f_r, f_t = make_inputs(rng)
    probe = tc.Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float64)

    def loss_value(weights):
        out = dmff.dmff_fuse(f_r, f_t, cfg, weights)
        return float((out.primary.data * probe.data).sum())

    tape = tc.Tape()
    tape.watch_all(wts.named_tensors())
    with tc.record_on(tape):
        out = dmff.dmff_fuse(f_r, f_t, cfg, wts)
        loss = tc.sum_all(tc.mul(out.primary, probe))
    rec = tc.backward(tc.scalar(1.0, dtype=np.float64), tape, loss)
    for name, tensor in wts.named_tensors():
        assert name in rec, name
        fd = fd_gradient(
            lambda t, name=name: loss_value(dmff.replace_parameters(wts, {name: t})),
            tensor,
        )
        assert rel_err(rec[name].data, fd) < 1e-4, name


def test_replace_parameters_preserves_sharing(rng):
    wts = build(make_cfg(mode="c"), rng)
    new = dmff.replace_parameters(
        wts, {"cfe.w_q": tc.Tensor(np.zeros((8, 8)), dtype=np.float64)}
    )
    assert new.icfe.cfe_r is new.icfe.cfe_t
    npt.assert_array_equal(new.icfe.cfe_t.w_q.data, 0.0)


@pytest.mark.parametrize("bad", ["unknown", "shape", "dtype"])
def test_replace_parameters_rejects_bad_entries(rng, bad):
    wts = build(make_cfg(mode="d"), rng)
    name, tensor = "cfe_r.w_q", tc.Tensor(np.zeros((8, 8)), dtype=np.float64)
    if bad == "unknown":
        name, error = "cfe.w_q", tc.ConfigurationError
    elif bad == "shape":
        tensor, error = tc.Tensor(np.zeros((8, 4)), dtype=np.float64), tc.DimensionError
    else:
        tensor, error = tensor.to_dtype(np.float32), tc.ConfigurationError
    with pytest.raises(error, match=name):
        dmff.replace_parameters(wts, {name: tensor})


def test_replace_parameters_rejects_weights_that_do_not_match_their_config(rng):
    wts = dataclasses.replace(build(make_cfg(mode="c"), rng), cfg=make_cfg(mode="d"))
    with pytest.raises(tc.ConfigurationError, match="cfe_r"):
        dmff.replace_parameters(wts, {})


# --- parameter schema -----------------------------------------------------------


def reference_init(cfg, height, width, channels, rng, dtype):
    """The stage-by-stage composition of the init_* helpers that
    init_dmff_weights must reproduce draw for draw."""
    from crossfuse.icfe import init_icfe_params
    from crossfuse.sfs import init_conv_shrink_param, init_mixed_pool_param
    from crossfuse.token_codec import init_positional_embedding

    s = cfg.shrink_window
    wts = dmff.DmffWeights(cfg=cfg, height=height, width=width, channels=channels)
    if cfg.mode in ("a", "b", "c", "d"):
        wts.icfe = init_icfe_params(channels, cfg.ffn_hidden, cfg.heads, rng,
                                    iterations=cfg.iterations, shared=cfg.mode != "d",
                                    dtype=dtype)
        tokens = (height // s) * (width // s)
        wts.pe_r = init_positional_embedding(tokens, channels, rng, dtype=dtype)
        wts.pe_t = init_positional_embedding(tokens, channels, rng, dtype=dtype)
        if cfg.shrink_variant == "pool":
            wts.sfs_r = init_mixed_pool_param(dtype=dtype)
            wts.sfs_t = init_mixed_pool_param(dtype=dtype)
        else:
            wts.sfs_r = init_conv_shrink_param(s, channels, rng, dtype=dtype)
            wts.sfs_t = init_conv_shrink_param(s, channels, rng, dtype=dtype)
    if cfg.mode in ("c", "d", "e"):
        bound = 1.0 / np.sqrt(2 * channels)
        wts.nin_w = tc.Tensor(rng.uniform(-bound, bound, size=(2 * channels, channels)),
                              dtype=dtype)
        wts.nin_b = tc.zeros((channels,), dtype=dtype)
    return wts


@pytest.mark.parametrize("mode", dmff.MODES)
def test_init_is_byte_identical_to_the_helper_composition(mode):
    for variant in ("pool", "conv"):
        for dtype in (np.float32, np.float64):
            for iterations in (0, 1, 3):
                cfg = make_cfg(mode=mode, shrink_variant=variant, iterations=iterations)
                rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
                new = dmff.init_dmff_weights(cfg, 4, 8, 8, rng_new, dtype=dtype)
                ref = reference_init(cfg, 4, 8, 8, rng_ref, dtype)
                got, want = list(new.named_tensors()), list(ref.named_tensors())
                assert [n for n, _ in got] == [n for n, _ in want]
                for (name, a), (_, b) in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert a.data.tobytes() == b.data.tobytes(), name
                assert rng_new.bytes(16) == rng_ref.bytes(16)
                if ref.icfe is not None:
                    assert new.icfe.shared == ref.icfe.shared
                    assert (new.icfe.cfe_r is new.icfe.cfe_t) == ref.icfe.shared
                    assert new.icfe.iterations == iterations
                    assert new.icfe.cfe_r.heads == cfg.heads


def test_param_spec_matches_init_names_order_and_shapes(rng):
    for mode in dmff.MODES:
        for variant in ("pool", "conv"):
            cfg = make_cfg(mode=mode, shrink_variant=variant)
            spec = dmff.param_spec(cfg, 4, 8, 8)
            wts = dmff.init_dmff_weights(cfg, 4, 8, 8, rng, dtype=np.float64)
            assert [(n, t.shape) for n, t in wts.named_tensors()] == \
                [(n, p.shape) for n, p in spec.items()]


def test_param_spec_rejects_bad_extents():
    with pytest.raises(tc.ConfigurationError, match="shrink window"):
        dmff.param_spec(make_cfg(shrink_window=3), 4, 8, 8)
    with pytest.raises(tc.ConfigurationError):
        dmff.param_spec(make_cfg(mode="e"), 4, 8, 0)


def test_assemble_round_trips_and_shares_by_mode(rng):
    for mode in ("a", "c", "d"):
        cfg = make_cfg(mode=mode)
        wts = build(cfg, rng)
        back = dmff.assemble(cfg, 4, 4, 8, dict(wts.named_tensors()))
        assert list(back.named_tensors()) == list(wts.named_tensors())
        assert back.icfe.shared == (mode != "d")
        assert (back.icfe.cfe_r is back.icfe.cfe_t) == (mode != "d")
