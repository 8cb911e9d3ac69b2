import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import cfe, dmff, icfe, sfs, tensor_core as tc, token_codec
from conftest import DTYPE_TOL, fd_gradient, rel_err


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


def stage(wts, prefix):
    """The tensors under `prefix`, keyed by leaf."""
    return {n[len(prefix):]: t for n, t in wts.named_tensors() if n.startswith(prefix)}


def coeff_overrides(wts, a, b, g, d):
    mapping = {}
    for name, _ in wts.named_tensors():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("alpha", "beta", "gamma", "delta"):
            value = {"alpha": a, "beta": b, "gamma": g, "delta": d}[leaf]
            mapping[name] = tc.scalar(value, dtype=np.float64)
    return mapping


# --- nin fusion ------------------------------------------------------------------


def nin_maps(f_r, f_t, w, b):
    """``nin_fuse`` of two maps' tokens on the maps' own grid."""
    h, width, _ = f_r.shape
    return dmff.nin_fuse(token_codec.tokenize(f_r), token_codec.tokenize(f_t),
                         (h, width), h, width, w, b)


def test_nin_selector_returns_first_input(rng):
    f_r, f_t = make_inputs(rng, 3, 3, 4)
    w = tc.Tensor(np.vstack([np.eye(4), np.zeros((4, 4))]), dtype=np.float64)
    out = nin_maps(f_r, f_t, w, tc.zeros((4,), dtype=np.float64))
    npt.assert_allclose(out.data, f_r.data, atol=1e-12)


def test_nin_averaging_construction(rng):
    f_r, f_t = make_inputs(rng, 3, 3, 4)
    w = tc.Tensor(np.vstack([0.5 * np.eye(4), 0.5 * np.eye(4)]), dtype=np.float64)
    out = nin_maps(f_r, f_t, w, tc.zeros((4,), dtype=np.float64))
    npt.assert_allclose(out.data, 0.5 * (f_r.data + f_t.data), atol=1e-12)


def test_nin_against_per_pixel_oracle(rng):
    f_r, f_t = make_inputs(rng, 3, 3, 4)
    w = rng.standard_normal((8, 4))
    b = rng.standard_normal(4)
    out = nin_maps(f_r, f_t, tc.Tensor(w, dtype=np.float64),
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
        nin_maps(f_r, f_t, tc.Tensor(np.zeros((8, 4)), dtype=np.float64),
                 tc.zeros((4,), dtype=np.float64))


# --- pipeline modes -----------------------------------------------------------------


def test_mode_e_with_averaging_weights_is_elementwise_mean(rng):
    cfg = make_cfg(mode="e")
    f_r, f_t = make_inputs(rng)
    wts = build(cfg, rng)
    w = tc.Tensor(np.vstack([0.5 * np.eye(8), 0.5 * np.eye(8)]), dtype=np.float64)
    wts = dmff.replace_parameters(wts, {"nin.w": w, "nin.b": tc.zeros((8,), dtype=np.float64)})
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
                             tensors={n: wts_d.tensors[n] for n in ("nin.w", "nin.b")})
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

    def np_cfe(target, aux, p, heads):
        p = {leaf: t.data for leaf, t in p.items()}
        c = target.shape[1]
        d = c // heads
        q = aux @ p["w_q"]
        k = target @ p["w_k"]
        v = target @ p["w_v"]
        z = np.zeros_like(target)
        for j in range(heads):
            qj, kj, vj = (m[:, j * d:(j + 1) * d] for m in (q, k, v))
            scores = qj @ kj.T / np.sqrt(d)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            z[:, j * d:(j + 1) * d] = probs @ vj
        t_prime = p["alpha"].item() * (z @ p["w_o"]) + p["beta"].item() * target
        hidden = np.maximum(t_prime @ p["ffn_w1"] + p["ffn_b1"], 0.0)
        f = hidden @ p["ffn_w2"] + p["ffn_b2"]
        return p["gamma"].item() * t_prime + p["delta"].item() * f

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

    t = wts.tensors
    sr = np_mixed_pool(f_r.data, 2, t["sfs_r.lambda_raw"].item())
    st = np_mixed_pool(f_t.data, 2, t["sfs_t.lambda_raw"].item())
    t_r = sr.reshape(4, 8) + t["pe_r.table"].data
    t_t = st.reshape(4, 8) + t["pe_t.table"].data
    enhanced = np_cfe(t_r, t_t, stage(wts, "cfe."), cfg.heads)
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
    # both branches get the rgb embedding and blend, so only the weight
    # layout tells the two runs apart
    t = dict(wts_c.tensors, **{"pe_t.table": wts_c.tensors["pe_r.table"],
                              "sfs_t.lambda_raw": wts_c.tensors["sfs_r.lambda_raw"]})
    wts_c = dataclasses.replace(wts_c, tensors=t)
    shared_set = stage(wts_c, "cfe.")
    unshared = {prefix + leaf: x for prefix in ("cfe_r.", "cfe_t.")
                for leaf, x in shared_set.items()}
    unshared.update((n, x) for n, x in t.items() if not n.startswith("cfe."))
    wts_d = dmff.DmffWeights(cfg=cfg_d, height=4, width=4, channels=8, tensors=unshared)
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


# Weights built in each mode (rows) run in each config mode (columns) at
# 4x4x8 f64: the first 16 hex digits of sha256(primary), or the error class.
# Pinned while the weights were still held in per-stage containers; the
# weight layout must not change a bit of any output.
CE, RGB, THERMAL = "ConfigurationError", "fee875d74ad64976", "2ecdefa2f290e2ba"
MODE_GRID = {
    "a": dict(a="f4af3c73a9c399da", b="89681fcb187f4dfb", c=CE, d=CE, e=CE,
              f_rgb=RGB, f_thermal=THERMAL),
    "b": dict(a="f4af3c73a9c399da", b="89681fcb187f4dfb", c=CE, d=CE, e=CE,
              f_rgb=RGB, f_thermal=THERMAL),
    "c": dict(a="f4af3c73a9c399da", b="89681fcb187f4dfb", c="5b7d44f1fb71eb29", d=CE,
              e="7dfe8d8335512346", f_rgb=RGB, f_thermal=THERMAL),
    "d": dict(a="cd0c12d0af12e997", b="6591b7902b5ed7f7", c=CE, d="f8c51a7ce69bfd1c",
              e="2b47248f1d4367d4", f_rgb=RGB, f_thermal=THERMAL),
    "e": dict(a=CE, b=CE, c=CE, d=CE, e="e6e8c8f02848ee2e", f_rgb=RGB, f_thermal=THERMAL),
    "f_rgb": dict(a=CE, b=CE, c=CE, d=CE, e=CE, f_rgb=RGB, f_thermal=THERMAL),
    "f_thermal": dict(a=CE, b=CE, c=CE, d=CE, e=CE, f_rgb=RGB, f_thermal=THERMAL),
}


@pytest.mark.parametrize("built", dmff.MODES)
def test_every_mode_pair_gives_its_pinned_output_or_a_configuration_error(built):
    wts = build(make_cfg(mode=built), np.random.default_rng(11))
    f_r, f_t = make_inputs(np.random.default_rng(12))
    for mode in dmff.MODES:
        try:
            out = dmff.dmff_fuse(f_r, f_t, dataclasses.replace(wts.cfg, mode=mode), wts)
            got = hashlib.sha256(out.primary.data.tobytes()).hexdigest()[:16]
        except tc.ConfigurationError:
            got = CE
        assert got == MODE_GRID[built][mode], (built, mode)


# Every taped gradient at 4x4x8 f64, per (mode, shrink variant, iterations,
# sequential update): the first 16 hex digits of sha256 over each
# parameter's name and gradient bytes, in ``param_spec`` order; the loss
# reaches every parameter.  Pinned while the token matrices still carried
# their grid, mode e while it still fused full-resolution maps; no refactor
# of the stages may change a bit.
GRAD_GRID = {
    ("a", "pool", 1, False): "1797982e4d3c43fa",
    ("a", "pool", 3, False): "d44ca57cbea68485",
    ("a", "conv", 1, False): "49e6b116f19723df",
    ("a", "conv", 3, False): "d2063fff4af6eea9",
    ("b", "pool", 1, False): "7e9e43838caae7ce",
    ("b", "pool", 3, False): "5cc0fb0e6ab80159",
    ("b", "conv", 1, False): "b96f0e988d2423f2",
    ("b", "conv", 3, False): "6b02a825e0d684e2",
    ("c", "pool", 1, False): "6a586db2a1f814ff",
    ("c", "pool", 3, False): "151602f04e9739a9",
    ("c", "conv", 1, False): "fe6aa03545f72dbe",
    ("c", "conv", 3, False): "2e1dfba8a40a6188",
    ("d", "pool", 1, False): "0ae9d23c88b35c0e",
    ("d", "pool", 3, False): "2fdfc54eb21c44a1",
    ("d", "conv", 1, False): "517eba984f4a6795",
    ("d", "conv", 3, False): "44118b2c788b2b35",
    ("d", "pool", 3, True): "d47d32d25a90383c",
    ("e", "pool", 1, False): "eed9419f17178a47",
}


def _digests(cfg):
    """sha256 prefixes of the output and of every taped gradient, in
    ``param_spec`` order, at 4x4x8 f64 under a fixed probe loss."""
    wts = build(cfg, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    f_r, f_t = make_inputs(rng)
    probe = tc.Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch_all(wts.named_tensors())
    with tc.record_on(tape):
        out = dmff.dmff_fuse(f_r, f_t, cfg, wts).primary
        loss = tc.sum_all(tc.mul(out, probe))
    rec = tc.backward(tc.scalar(1.0, dtype=np.float64), tape, loss)
    digest = hashlib.sha256()
    for name, _ in wts.named_tensors():
        digest.update(name.encode() + rec[name].data.tobytes())
    return hashlib.sha256(out.data.tobytes()).hexdigest()[:16], digest.hexdigest()[:16]


@pytest.mark.parametrize("mode, variant, iterations, sequential", list(GRAD_GRID))
def test_every_gradient_matches_its_pin(mode, variant, iterations, sequential):
    cfg = make_cfg(mode=mode, shrink_variant=variant, iterations=iterations,
                   sequential_update=sequential)
    assert _digests(cfg)[1] == GRAD_GRID[mode, variant, iterations, sequential]


# Modes c and d at shrink window 1, where the token grid is the map itself:
# (output, gradient) digests as above, pinned before the fusion skipped its
# identity resize there.  The gradient digests were pinned again when the
# attention score blocks became key-major, whose products sum in another
# order: no gradient moved by more than 5.3e-16 of its tensor's largest entry.
WINDOW_ONE_GRID = {
    ("c", "pool", 1): ("37e9e2710c9cabf9", "41d773351f18ee81"),
    ("c", "conv", 3): ("ca3f208541f4f2f9", "092ca0abb61bfd48"),
    ("d", "pool", 1): ("48eccb224d12add8", "f663d613cc5639e0"),
    ("d", "conv", 3): ("c0c96e4eb134c707", "f5e082a5e828137a"),
}


@pytest.mark.parametrize("mode, variant, iterations", list(WINDOW_ONE_GRID))
def test_window_one_output_and_gradients_match_their_pins(mode, variant, iterations):
    cfg = make_cfg(mode=mode, shrink_variant=variant, iterations=iterations,
                   shrink_window=1)
    assert _digests(cfg) == WINDOW_ONE_GRID[mode, variant, iterations]


# --- the untaped branch-token cache ---------------------------------------------


@pytest.mark.parametrize("mode, variant, iterations, sequential", list(GRAD_GRID))
def test_a_cached_fuse_equals_an_uncached_one_under_every_bump(mode, variant, iterations,
                                                              sequential):
    # the first cached call fills the cache from the unbumped weights; every
    # later call bumps one tensor, so a stale hit on a bumped shrink or table
    # tensor would return other bytes than the uncached fuse
    cfg = make_cfg(mode=mode, shrink_variant=variant, iterations=iterations,
                   sequential_update=sequential)
    wts = build(cfg, np.random.default_rng(31))
    f_r, f_t = make_inputs(np.random.default_rng(32))
    cache = {}
    base = dmff.dmff_fuse(f_r, f_t, cfg, wts, cache).primary.data
    assert base.tobytes() == dmff.dmff_fuse(f_r, f_t, cfg, wts).primary.data.tobytes()
    assert set(cache) == ({"r", "t"} if mode != "e" else set())
    first = dict(cache)
    for name, t in wts.named_tensors():
        bumped = dmff.replace_parameters(wts, {name: tc.Tensor(t.data + 0.125, np.float64)})
        got = dmff.dmff_fuse(f_r, f_t, cfg, bumped, cache).primary.data
        want = dmff.dmff_fuse(f_r, f_t, cfg, bumped).primary.data
        assert got.tobytes() == want.tobytes(), name
        assert got.tobytes() != base.tobytes(), name  # the bump reaches the output
    assert cache == first  # only the first call's entries are kept
    # other maps miss the cache too, and the swapped pair fuses as uncached
    got = dmff.dmff_fuse(f_t, f_r, cfg, wts, cache).primary.data
    assert got.tobytes() == dmff.dmff_fuse(f_t, f_r, cfg, wts).primary.data.tobytes()


@pytest.mark.parametrize("mode", ["a", "d"])
def test_a_taped_fuse_neither_reads_nor_fills_the_cache(mode):
    cfg = make_cfg(mode=mode)
    wts = build(cfg, np.random.default_rng(33))
    f_r, f_t = make_inputs(np.random.default_rng(34))

    def taped(cache):
        tape = tc.Tape()
        tape.watch_all(wts.named_tensors())
        with tc.record_on(tape):
            out = dmff.dmff_fuse(f_r, f_t, cfg, wts, cache).primary
            loss = tc.mean_squared_error(out, f_r)
        rec = tc.backward(tc.scalar(1.0, dtype=np.float64), tape, loss)
        return tape.num_steps, {n: rec[n].data.tobytes() for n in rec.names()}

    empty = {}
    assert taped(empty) == taped(None) and empty == {}
    filled = {}
    dmff.dmff_fuse(f_r, f_t, cfg, wts, filled)
    entries = dict(filled)
    steps, grads = taped(filled)
    assert (steps, grads) == taped(None)
    assert {"sfs_r.lambda_raw", "pe_t.table"} <= set(grads)
    assert filled == entries


def test_the_cache_keeps_its_key_tensors_alive():
    # an entry is keyed by ids, so it must hold its tensors: a freed map's
    # id could otherwise be reused by a new map and hit stale tokens
    cfg = make_cfg(mode="d")
    wts = build(cfg, np.random.default_rng(35))
    f_r, f_t = make_inputs(np.random.default_rng(36))
    alive = weakref.ref(f_r.data)  # a Tensor has no weakref slot; its array does
    cache = {}
    dmff.dmff_fuse(f_r, f_t, cfg, wts, cache)
    del f_r
    gc.collect()
    assert alive() is not None
    cache.clear()
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("mode, window", [("e", 2), ("c", 1), ("d", 1), ("a", 1), ("b", 1)])
def test_fusion_on_the_input_grid_does_not_resize(mode, window, rng):
    # at the input resolution the fusion has nothing to resample
    cfg = make_cfg(mode=mode, shrink_window=window)
    wts = build(cfg, rng)
    f_r, f_t = make_inputs(rng)
    with tc.count_multiplies() as counter:
        dmff.dmff_fuse(f_r, f_t, cfg, wts)
    assert counter.total("resize") == 0
    # modes a and b emit one enhanced branch and fuse nothing
    assert counter.total("nin") == (4 * 4 * 16 * 8 if dmff.MODE_TABLE[mode].emits == "fused"
                                    else 0)


@pytest.mark.parametrize("iterations, most", [(1, 34), (3, 66)])
def test_taped_fuse_records_few_tape_steps(iterations, most, rng):
    # one tape step per residual, per FFN and per pooling blend, and the
    # fusion bias is added to the map; the count does not depend on the extents
    cfg = make_cfg(mode="d", shrink_variant="pool", iterations=iterations)
    wts = build(cfg, rng, 8, 8, 16)
    f_r, f_t = make_inputs(rng, 8, 8, 16)
    tape = tc.Tape()
    tape.watch_all(wts.named_tensors())
    with tc.record_on(tape):
        out = dmff.dmff_fuse(f_r, f_t, cfg, wts).primary
        tc.mean_all(tc.mul(out, out))
    assert tape.num_steps <= most


@pytest.mark.parametrize("field, value", [
    ("iterations", 3), ("heads", 4), ("heads", 1), ("ffn_hidden", 16),
    ("shrink_variant", "conv"), ("shrink_window", 1)])
def test_fuse_rejects_a_config_the_weights_were_not_built_with(field, value, rng):
    cfg = make_cfg(heads=2, ffn_hidden=8, iterations=1, shrink_variant="pool")
    wts = build(cfg, rng)
    f_r, f_t = make_inputs(rng)
    with pytest.raises(tc.ConfigurationError, match=f"config {field} is"):
        dmff.dmff_fuse(f_r, f_t, dataclasses.replace(cfg, **{field: value}), wts)


def test_fuse_takes_duplication_and_update_order_from_the_config(rng):
    wts = build(make_cfg(mode="d"), rng)
    f_r, f_t = make_inputs(rng)
    base = dmff.dmff_fuse(f_r, f_t, wts.cfg, wts).primary.data
    for field, value in (("input_duplication", "rgb_both"), ("sequential_update", True)):
        out = dmff.dmff_fuse(f_r, f_t, dataclasses.replace(wts.cfg, **{field: value}), wts)
        assert not np.array_equal(out.primary.data, base), field


def test_configs_cannot_change_under_built_weights(rng):
    from crossfuse.synth import SyntheticPairSpec
    from crossfuse.train import TrainConfig

    cfg = make_cfg(iterations=1)
    wts = build(cfg, rng)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.iterations = 3
    assert wts.cfg.iterations == 1
    for config in (TrainConfig(), SyntheticPairSpec()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 3


def test_iterations_are_bounded():
    assert make_cfg(iterations=dmff.MAX_ITERATIONS).iterations == dmff.MAX_ITERATIONS
    for bad in (-1, dmff.MAX_ITERATIONS + 1, 10 ** 9):
        with pytest.raises(tc.ConfigurationError, match="iterations"):
            make_cfg(iterations=bad)


@pytest.mark.parametrize("mode", ["d", "e"])
def test_fuse_rejects_maps_in_another_dtype_than_the_weights(mode, rng):
    cfg = make_cfg(mode=mode)
    wts = dmff.init_dmff_weights(cfg, 4, 4, 8, rng, dtype=np.float32)
    f_r, f_t = make_inputs(rng)  # float64
    with pytest.raises(tc.ConfigurationError,
                       match="maps are float64/float64, weights are float32"):
        dmff.dmff_fuse(f_r, f_t, cfg, wts)


@pytest.mark.parametrize("shape", [(4, 4, 16), (8, 4, 8), (2, 2, 8)])
def test_fuse_rejects_maps_of_another_size_than_the_weights(shape, rng):
    cfg = make_cfg(mode="d")
    wts = build(cfg, rng)  # sized for 4 x 4 x 8
    f_r, f_t = make_inputs(rng, *shape)
    with pytest.raises(tc.DimensionError, match=r"weights are sized for \(4, 4, 8\)"):
        dmff.dmff_fuse(f_r, f_t, cfg, wts)


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


def _resize_then_fuse(f_r, f_t, cfg, wts):
    # the fusion's definition: resize both enhanced maps, then fuse them
    h, w, _ = f_r.shape
    s = cfg.shrink_window
    t = wts.tensors
    t_r = token_codec.tokenize(sfs.shrink(f_r, s, stage(wts, "sfs_r.")), t["pe_r.table"])
    t_t = token_codec.tokenize(sfs.shrink(f_t, s, stage(wts, "sfs_t.")), t["pe_t.table"])
    cfe_r, cfe_t = ((stage(wts, "cfe_r."), stage(wts, "cfe_t.")) if cfg.mode == "d"
                    else (stage(wts, "cfe."),) * 2)
    t_r, t_t = icfe.icfe_forward(t_r, t_t, [(cfe_r, cfe_t)] * cfg.iterations, cfg.heads,
                                 sequential=cfg.sequential_update)
    grid = (h // s, w // s)
    return nin_maps(tc.bilinear_resize(token_codec.detokenize(t_r, *grid), h, w),
                    tc.bilinear_resize(token_codec.detokenize(t_t, *grid), h, w),
                    t["nin.w"], t["nin.b"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode, window, sequential", [
    ("c", 2, False), ("d", 2, False), ("d", 4, True), ("d", 1, False)])
def test_fusion_at_token_resolution_matches_resize_then_fuse(mode, window, sequential,
                                                             dtype, rng):
    cfg = make_cfg(mode=mode, shrink_window=window, sequential_update=sequential,
                   iterations=2)
    wts = dmff.init_dmff_weights(cfg, 8, 8, 8, rng, dtype=dtype)
    f_r, f_t = (tc.Tensor(rng.standard_normal((8, 8, 8)), dtype=dtype) for _ in range(2))
    got = dmff.dmff_fuse(f_r, f_t, cfg, wts).primary.data
    ref = _resize_then_fuse(f_r, f_t, cfg, wts).data
    assert got.shape == ref.shape == (8, 8, 8)
    assert np.max(np.abs(got - ref)) < DTYPE_TOL[dtype] * max(1.0, np.abs(ref).max())


def _unpruned_sweep(tape, output):
    # the reverse sweep without marking: every step with a gradient runs
    grads = {id(output): np.ones(1)}
    for out, parents, backward_fn in reversed(tape._steps):
        g = grads.get(id(out))
        if g is None:
            continue
        for parent, pg in zip(parents, backward_fn(g)):
            if pg is not None:
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
    return {name: grads[id(t)] for name, t in tape._watched.items() if id(t) in grads}


@pytest.mark.parametrize("mode", ["a", "d"])
def test_backward_runs_no_pool_adjoint_into_the_input_maps(mode, rng, monkeypatch):
    cfg = make_cfg(mode=mode, iterations=2)
    wts = build(cfg, rng)
    f_r, f_t = make_inputs(rng)
    pool2d, pooled = tc.pool2d, set()

    def spy_pool2d(*args, **kwargs):
        out = pool2d(*args, **kwargs)
        pooled.add(id(out))
        return out

    monkeypatch.setattr(tc, "pool2d", spy_pool2d)
    tape = tc.Tape()
    tape.watch_all(wts.named_tensors())
    with tc.record_on(tape):
        out = dmff.dmff_fuse(f_r, f_t, cfg, wts)
        loss = tc.sum_all(out.primary)
    assert len(pooled) == 4
    adjoint_runs = []

    def counted(backward_fn):
        def run(g):
            adjoint_runs.append(1)
            return backward_fn(g)
        return run

    tape._steps = [(o, p, counted(fn) if id(o) in pooled else fn) for o, p, fn in tape._steps]
    rec = tc.backward(tc.scalar(1.0, dtype=np.float64), tape, loss)
    assert adjoint_runs == []
    ref = _unpruned_sweep(tape, loss)
    assert len(adjoint_runs) == 4  # the reference does run them
    assert rec.names() == sorted(ref)
    for name in rec.names():
        assert rec[name].data.tobytes() == np.ascontiguousarray(ref[name]).tobytes(), name


def test_replace_parameters_preserves_sharing(rng):
    wts = build(make_cfg(mode="c"), rng)
    new = dmff.replace_parameters(
        wts, {"cfe.w_q": tc.Tensor(np.zeros((8, 8)), dtype=np.float64)}
    )
    assert list(new.tensors) == list(wts.tensors)  # still the one shared "cfe." set
    npt.assert_array_equal(new.tensors["cfe.w_q"].data, 0.0)


@pytest.mark.parametrize("bad", ["unknown", "shape", "dtype"])
def test_replace_parameters_rejects_bad_entries(rng, bad):
    wts = build(make_cfg(mode="d"), rng)
    name, tensor = "cfe_r.w_q", tc.Tensor(np.zeros((8, 8)), dtype=np.float64)
    if bad == "unknown":
        name, error = "cfe.w_q", tc.ConfigurationError
    elif bad == "shape":
        tensor, error = tc.Tensor(np.zeros((8, 4)), dtype=np.float64), tc.DimensionError
    else:
        tensor, error = tc.Tensor(np.zeros((8, 8)), dtype=np.float32), tc.ConfigurationError
    with pytest.raises(error, match=name):
        dmff.replace_parameters(wts, {name: tensor})


def test_fuse_rejects_weights_that_do_not_match_their_config(rng):
    wts = dataclasses.replace(build(make_cfg(mode="c"), rng), cfg=make_cfg(mode="d"))
    f_r, f_t = make_inputs(rng)
    with pytest.raises(tc.ConfigurationError, match="cfe_r"):
        dmff.dmff_fuse(f_r, f_t, wts.cfg, dmff.replace_parameters(wts, {}))


# --- parameter schema -----------------------------------------------------------


# Plain-numpy copies of the init draws the weights have always had, kept
# apart from the specs in the library so that the byte checks compare two
# independent statements of every init rule.  Each returns leaf -> array.


def reference_cfe(c, hidden, rng, dtype, coefficients=(1.0, 1.0, 1.0, 1.0)):
    bound = 1.0 / np.sqrt(c)

    def uniform(shape):
        return np.asarray(rng.uniform(-bound, bound, size=shape), dtype=dtype)

    a, b, g, d = coefficients
    return dict(w_q=uniform((c, c)), w_k=uniform((c, c)), w_v=uniform((c, c)),
                w_o=uniform((c, c)), ffn_w1=uniform((c, hidden)),
                ffn_b1=np.zeros(hidden, dtype), ffn_w2=uniform((hidden, c)),
                ffn_b2=np.zeros(c, dtype), alpha=np.array([a], dtype),
                beta=np.array([b], dtype), gamma=np.array([g], dtype),
                delta=np.array([d], dtype))


def reference_pe(tokens, c, rng, dtype):
    return {"table": np.asarray(rng.uniform(-0.02, 0.02, size=(tokens, c)), dtype=dtype)}


def reference_pool(dtype):
    return {"lambda_raw": np.array([0.0], dtype)}


def reference_conv(s, c, rng, dtype):
    bound = 1.0 / np.sqrt(s * s * c)
    return {"w": np.asarray(rng.uniform(-bound, bound, size=(s * s * c, c)), dtype=dtype),
            "b": np.zeros(c, dtype)}


def reference_init(cfg, height, width, channels, rng, dtype):
    """(name, array) pairs of a pipeline init, drawn stage by stage."""
    named = []

    def add(prefix, leaves):
        named.extend((prefix + leaf, a) for leaf, a in leaves.items())

    s, c = cfg.shrink_window, channels
    if cfg.mode in ("a", "b", "c", "d"):
        for prefix in (("cfe_r.", "cfe_t.") if cfg.mode == "d" else ("cfe.",)):
            add(prefix, reference_cfe(c, cfg.ffn_hidden, rng, dtype))
        tokens = (height // s) * (width // s)
        add("pe_r.", reference_pe(tokens, c, rng, dtype))
        add("pe_t.", reference_pe(tokens, c, rng, dtype))
        for branch in ("sfs_r.", "sfs_t."):
            add(branch, reference_pool(dtype) if cfg.shrink_variant == "pool"
                else reference_conv(s, c, rng, dtype))
    if cfg.mode in ("c", "d", "e"):
        bound = 1.0 / np.sqrt(2 * c)
        add("nin.", {"w": np.asarray(rng.uniform(-bound, bound, size=(2 * c, c)), dtype=dtype),
                     "b": np.zeros(c, dtype)})
    return named


def assert_same_draws(got, want, rng_got, rng_want):
    """Same names in the same order, byte-identical arrays, same rng state."""
    got = [(n, t.data) for n, t in got]
    assert [n for n, _ in got] == [n for n, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert rng_got.bytes(16) == rng_want.bytes(16)


@pytest.mark.parametrize("mode", dmff.MODES)
def test_init_is_byte_identical_to_the_helper_composition(mode):
    for variant in ("pool", "conv"):
        for dtype in (np.float32, np.float64):
            for iterations in (0, 1, 3):
                cfg = make_cfg(mode=mode, shrink_variant=variant, iterations=iterations)
                rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
                new = dmff.init_dmff_weights(cfg, 4, 8, 8, rng_new, dtype=dtype)
                assert_same_draws(new.named_tensors(),
                                  reference_init(cfg, 4, 8, 8, rng_ref, dtype),
                                  rng_new, rng_ref)
                assert new.cfg == cfg


def _prefixed(*parts):
    return [(prefix + leaf, a) for prefix, leaves in parts for leaf, a in leaves.items()]


def _enhancement_spec(mode):
    # the enhancement sets of param_spec: one shared set in mode c, two in d
    spec = dmff.param_spec(make_cfg(mode=mode, heads=2, ffn_hidden=10), 2, 2, 6)
    return {n: p for n, p in spec.items() if n.startswith("cfe")}


COEFFS = (0.0, 1.0, 0.5, -2.0)
# each stage's spec, drawn by tc.init_tensors, against the reference draws
STAGE_SPECS = {
    "cfe": (lambda: cfe.cfe_spec(6, 10),
            lambda rng, dt: _prefixed(("", reference_cfe(6, 10, rng, dt)))),
    "cfe_coefficients": (
        lambda: cfe.cfe_spec(6, 10, COEFFS),
        lambda rng, dt: _prefixed(("", reference_cfe(6, 10, rng, dt, COEFFS)))),
    "pool": (lambda: sfs.shrink_spec("pool", 3, 5),
             lambda rng, dt: _prefixed(("", reference_pool(dt)))),
    "conv": (lambda: sfs.shrink_spec("conv", 3, 5),
             lambda rng, dt: _prefixed(("", reference_conv(3, 5, rng, dt)))),
    "pe": (lambda: token_codec.pe_spec(7, 5),
           lambda rng, dt: _prefixed(("", reference_pe(7, 5, rng, dt)))),
    "icfe": (lambda: _enhancement_spec("d"),
             lambda rng, dt: _prefixed(("cfe_r.", reference_cfe(6, 10, rng, dt)),
                                       ("cfe_t.", reference_cfe(6, 10, rng, dt)))),
    "icfe_shared": (lambda: _enhancement_spec("c"),
                    lambda rng, dt: _prefixed(("cfe.", reference_cfe(6, 10, rng, dt)))),
    "stacked": (lambda: icfe.stacked_spec(6, 10, 2),
                lambda rng, dt: _prefixed(*[(f"block{i}.cfe_{b}.", reference_cfe(6, 10, rng, dt))
                                            for i in range(2) for b in "rt"])),
}


@pytest.mark.parametrize("helper", sorted(STAGE_SPECS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stage_helper_init_is_byte_identical_to_the_reference(helper, dtype):
    spec, ref = STAGE_SPECS[helper]
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    assert_same_draws(tc.init_tensors(spec(), rng_new, dtype).items(), ref(rng_ref, dtype),
                      rng_new, rng_ref)


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
    # heads must divide the channels of every mode that enhances
    for mode in (m for m, row in dmff.MODE_TABLE.items() if row.enhances):
        with pytest.raises(tc.ConfigurationError, match="heads"):
            dmff.param_spec(make_cfg(mode=mode, heads=3), 4, 8, 8)


def test_param_spec_bounds_the_attention_multiplies():
    # T = 128 x 256 tokens of 16 channels: 2 T^2 C = 2^35 per attention
    t_cfg = dict(heads=1, shrink_window=1)
    assert dmff.MAX_ATTENTION_MULTIPLIES == 2 * 2 * (128 * 256) ** 2 * 16
    for mode, iterations in (("a", 2), ("b", 2), ("c", 1), ("d", 1)):
        dmff.param_spec(make_cfg(mode=mode, iterations=iterations, **t_cfg), 128, 256, 16)
    for mode, iterations in (("a", 3), ("c", 2), ("d", 2)):
        with pytest.raises(tc.ConfigurationError, match="attention multiplies"):
            dmff.param_spec(make_cfg(mode=mode, iterations=iterations, **t_cfg), 128, 256, 16)
    # no attention, no bound
    dmff.param_spec(make_cfg(mode="e", **t_cfg), 2048, 2048, 1)
    # the defaults and the benchmark workloads' configs are admitted
    dmff.param_spec(dmff.DmffConfig(), 8, 8, 16)
    for hw, c, iterations in ((64, 64, 1), (32, 64, 3), (8, 16, 1)):
        dmff.param_spec(dmff.DmffConfig(ffn_hidden=256, iterations=iterations), hw, hw, c)


def test_assemble_round_trips_and_shares_by_mode(rng):
    for mode in ("a", "c", "d"):
        cfg = make_cfg(mode=mode)
        wts = build(cfg, rng)
        back = dmff.assemble(cfg, 4, 4, 8, dict(wts.named_tensors()))
        assert list(back.named_tensors()) == list(wts.named_tensors())
        assert ("cfe.w_q" in back.tensors) == (mode != "d")
        assert ("cfe_r.w_q" in back.tensors) == (mode == "d")
        # any input order comes back in param_spec order
        shuffled = dict(reversed(list(wts.named_tensors())))
        assert list(dmff.assemble(cfg, 4, 4, 8, shuffled).named_tensors()) == \
            list(wts.named_tensors())
