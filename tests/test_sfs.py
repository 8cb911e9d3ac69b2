import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import sfs
from crossfuse import tensor_core as tc
from conftest import fd_gradient, rel_err


def _pool_param(raw, dtype=np.float64):
    return {"lambda_raw": tc.scalar(raw, dtype=dtype)}


def _conv_param(w, b):
    return {"w": w, "b": b}


def _init_conv_param(s, c, rng):
    return tc.init_tensors(sfs.shrink_spec("conv", s, c), rng, np.float64)


def test_large_positive_raw_is_pure_average(rng):
    m = tc.Tensor(rng.standard_normal((4, 4, 3)), dtype=np.float64)
    out = sfs.shrink_pool(m, 2, _pool_param(20.0))
    avg = tc.pool2d(m, 2, "avg")
    assert np.max(np.abs(out.data - avg.data)) < 1e-6


def test_large_negative_raw_is_pure_max(rng):
    m = tc.Tensor(rng.standard_normal((4, 4, 3)), dtype=np.float64)
    out = sfs.shrink_pool(m, 2, _pool_param(-20.0))
    mx = tc.pool2d(m, 2, "max")
    assert np.max(np.abs(out.data - mx.data)) < 1e-6


def test_halfway_blend_arithmetic():
    m = tc.Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(2, 2, 1), dtype=np.float64)
    out = sfs.shrink_pool(m, 2, _pool_param(0.0))
    # 0.5 * 4 + 0.5 * 7
    assert out.data[0, 0, 0] == 5.5


def test_blend_stays_between_avg_and_max(rng):
    m = tc.Tensor(rng.standard_normal((6, 6, 2)), dtype=np.float64)
    avg = tc.pool2d(m, 2, "avg").data
    mx = tc.pool2d(m, 2, "max").data
    for raw in (-3.0, -0.5, 0.0, 1.2, 4.0):
        out = sfs.shrink_pool(m, 2, _pool_param(raw)).data
        assert np.all(out >= np.minimum(avg, mx) - 1e-12)
        assert np.all(out <= np.maximum(avg, mx) + 1e-12)


def test_window_one_is_identity(rng):
    m = tc.Tensor(rng.standard_normal((3, 5, 2)), dtype=np.float64)
    for raw in (-2.0, 0.0, 3.0):
        out = sfs.shrink_pool(m, 1, _pool_param(raw))
        npt.assert_allclose(out.data, m.data, atol=1e-15)


def test_lambda_raw_gradient_matches_finite_differences(rng):
    m = tc.Tensor(rng.standard_normal((4, 4, 2)), dtype=np.float64)
    p = _pool_param(0.3)

    def loss_fn(raw_tensor):
        out = sfs.shrink_pool(m, 2, {"lambda_raw": raw_tensor})
        return float((out.data ** 2).sum())

    tape = tc.Tape()
    tape.watch(p["lambda_raw"], "lambda_raw")
    with tc.record_on(tape):
        out = sfs.shrink_pool(m, 2, p)
    rec = tc.backward(tc.Tensor(out.data + out.data), tape, out)  # sum(out^2)
    fd = fd_gradient(loss_fn, p["lambda_raw"])
    assert rel_err(rec["lambda_raw"].data, fd) < 1e-4


def test_divisibility_violation_is_config_error(rng):
    m = tc.Tensor(rng.standard_normal((5, 4, 2)), dtype=np.float64)
    with pytest.raises(tc.ConfigurationError):
        sfs.shrink_pool(m, 2, _pool_param(0.0))
    p = _init_conv_param(2, 2, rng)
    with pytest.raises(tc.ConfigurationError):
        sfs.shrink_conv(m, 2, p)


# --- convolution variant -------------------------------------------------------


def test_conv_identity_at_window_one(rng):
    c = 3
    m = tc.Tensor(rng.standard_normal((4, 5, c)), dtype=np.float64)
    p = _conv_param(tc.Tensor(np.eye(c), dtype=np.float64), tc.zeros((c,), dtype=np.float64))
    out = sfs.shrink_conv(m, 1, p)
    npt.assert_array_equal(out.data, m.data)


def test_conv_all_ones_quarter_equals_average_pooling(rng):
    m = tc.Tensor(rng.standard_normal((4, 4, 1)), dtype=np.float64)
    w = tc.Tensor(np.full((4, 1), 0.25), dtype=np.float64)
    p = _conv_param(w, tc.zeros((1,), dtype=np.float64))
    out = sfs.shrink_conv(m, 2, p)
    avg = tc.pool2d(m, 2, "avg")
    npt.assert_allclose(out.data, avg.data, atol=1e-12)


def test_conv_against_per_pixel_dot_product_oracle(rng):
    h, w, c, s = 4, 4, 2, 2
    x = rng.standard_normal((h, w, c))
    wmat = rng.standard_normal((s * s * c, c))
    bias = rng.standard_normal(c)
    p = _conv_param(tc.Tensor(wmat, dtype=np.float64), tc.Tensor(bias, dtype=np.float64))
    out = sfs.shrink_conv(tc.Tensor(x, dtype=np.float64), s, p)
    for oi in range(h // s):
        for oj in range(w // s):
            block = x[oi * s : (oi + 1) * s, oj * s : (oj + 1) * s, :].reshape(-1)
            for oc in range(c):
                expected = float(block @ wmat[:, oc] + bias[oc])
                assert abs(out.data[oi, oj, oc] - expected) < 1e-12


def test_conv_weight_shape_mismatch(rng):
    m = tc.Tensor(rng.standard_normal((4, 4, 2)), dtype=np.float64)
    p = _conv_param(tc.Tensor(rng.standard_normal((4, 2)), dtype=np.float64),
                            tc.zeros((2,), dtype=np.float64))
    with pytest.raises(tc.DimensionError):
        sfs.shrink_conv(m, 2, p)


def test_token_count_reduction_both_variants(rng):
    h = w = 8
    c, s = 4, 2
    m = tc.Tensor(rng.standard_normal((h, w, c)), dtype=np.float64)
    pooled = sfs.shrink_pool(m, s, _pool_param(0.0))
    conved = sfs.shrink_conv(m, s, _init_conv_param(s, c, rng))
    for out in (pooled, conved):
        oh, ow, oc = out.shape
        assert oh * ow == (h * w) // (s * s)
        assert oc == c


def test_conv_gradients_match_finite_differences(rng):
    m = tc.Tensor(rng.standard_normal((4, 4, 2)), dtype=np.float64)
    p = _init_conv_param(2, 2, rng)

    def loss_with(wt):
        out = sfs.shrink_conv(m, 2, _conv_param(wt, p["b"]))
        return float((out.data ** 2).sum())

    tape = tc.Tape()
    tape.watch(p["w"], "w")
    tape.watch(p["b"], "b")
    with tc.record_on(tape):
        out = sfs.shrink_conv(m, 2, p)
    rec = tc.backward(tc.Tensor(out.data + out.data), tape, out)  # sum(out^2)
    assert rel_err(rec["w"].data, fd_gradient(loss_with, p["w"])) < 1e-4
