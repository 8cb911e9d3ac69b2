import json
import math
import threading
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfuse import tensor_core as tc
from conftest import (DTYPE_TOL, RAWTENSOR_PROBES, RAWTENSOR_SIZE_PROBES, attention_probs,
                      fd_gradient, rel_err, write_rawtensor_probe)


# --- independent oracles ----------------------------------------------------


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product in float64."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


def softmax_oracle(row: np.ndarray) -> np.ndarray:
    """Direct exp/sum evaluation in float64, no shift."""
    e = np.exp(np.asarray(row, dtype=np.float64))
    return e / e.sum()


def bilinear_point_oracle(x: np.ndarray, h_out: int, w_out: int, i: int, j: int, c: int) -> float:
    """Scalar evaluation of the resampling formula at one output position."""
    h, w = x.shape[0], x.shape[1]
    sy = min(max((i + 0.5) * (h / h_out) - 0.5, 0.0), h - 1.0)
    sx = min(max((j + 0.5) * (w / w_out) - 0.5, 0.0), w - 1.0)
    y0 = min(int(np.floor(sy)), h - 1)
    x0 = min(int(np.floor(sx)), w - 1)
    y1 = min(y0 + 1, h - 1)
    x1 = min(x0 + 1, w - 1)
    fy = sy - y0
    fx = sx - x0
    return float(
        (1 - fy) * (1 - fx) * x[y0, x0, c]
        + (1 - fy) * fx * x[y0, x1, c]
        + fy * (1 - fx) * x[y1, x0, c]
        + fy * fx * x[y1, x1, c]
    )


def four_corners(h: int, w: int, h_out: int, w_out: int, dt):
    """(row index, column index, weight) of the four samples behind each output."""
    i0, i1, wi1 = tc._resize_coords(h, h_out)
    j0, j1, wj1 = tc._resize_coords(w, w_out)
    wi1 = wi1.astype(dt)[:, None, None]
    wj1 = wj1.astype(dt)[None, :, None]
    wi0, wj0 = dt.type(1.0) - wi1, dt.type(1.0) - wj1
    return ((i0, j0, wi0 * wj0), (i0, j1, wi0 * wj1),
            (i1, j0, wi1 * wj0), (i1, j1, wi1 * wj1))


def bilinear_four_corner(x: np.ndarray, h_out: int, w_out: int) -> np.ndarray:
    """The former gather kernel: weighted sum of the four corner samples."""
    h, w, c = x.shape
    out = np.zeros((h_out, w_out, c), dtype=x.dtype)
    for ri, cj, wgt in four_corners(h, w, h_out, w_out, x.dtype):
        out += wgt * x[np.ix_(ri, cj)]
    return out


def bilinear_four_corner_adjoint(g: np.ndarray, h: int, w: int) -> np.ndarray:
    """Adjoint of `bilinear_four_corner`: scatter-add into the four corners."""
    h_out, w_out, c = g.shape
    gx = np.zeros((h, w, c), dtype=g.dtype)
    for ri, cj, wgt in four_corners(h, w, h_out, w_out, g.dtype):
        np.add.at(gx, np.ix_(ri, cj), wgt * g)
    return gx


def pool_avg_gather_mean(x: np.ndarray, s: int) -> np.ndarray:
    """The former average-pooling kernel: gather each window, then `mean`."""
    h, w, c = x.shape
    windows = x.reshape(h // s, s, w // s, s, c).transpose(0, 2, 4, 1, 3)
    return np.ascontiguousarray(windows).reshape(h // s, w // s, c, s * s).mean(axis=-1)


def pool_adjoint_argmax_reference(x: np.ndarray, g: np.ndarray, s: int, kind: str):
    """The former pooling adjoints: window-flattened gradients, `argmax` and
    `put_along_axis` for max, scattered back through 5-d transposes."""
    h, w, c = x.shape
    ho, wo = h // s, w // s
    if kind == "avg":
        gwin = np.ascontiguousarray(np.broadcast_to(g[..., None] / (s * s),
                                                    (ho, wo, c, s * s)))
    else:
        argmax = np.ascontiguousarray(
            x.reshape(ho, s, wo, s, c).transpose(0, 2, 4, 1, 3)
        ).reshape(ho, wo, c, s * s).argmax(axis=-1)
        gwin = np.zeros((ho, wo, c, s * s), dtype=g.dtype)
        np.put_along_axis(gwin, argmax[..., None], g[..., None], axis=-1)
    return np.ascontiguousarray(
        gwin.reshape(ho, wo, c, s, s).transpose(0, 3, 1, 4, 2)).reshape(h, w, c)


def per_head_attention(q: tc.Tensor, k: tc.Tensor, v: tc.Tensor, heads: int) -> tc.Tensor:
    """The former per-head composition of tape ops."""
    d = q.shape[1] // heads
    outputs = []
    for j in range(heads):
        lo, hi = j * d, (j + 1) * d
        scores = tc.matmul(tc.col_slice(q, lo, hi), tc.transpose(tc.col_slice(k, lo, hi)))
        probs = tc.softmax_rows(tc.const_scale(scores, 1.0 / np.sqrt(d)))
        outputs.append(tc.matmul(probs, tc.col_slice(v, lo, hi)))
    return outputs[0] if heads == 1 else tc.concat_cols(outputs)


def stored_e_attention(q, k, v, heads: int, g):
    """Output and q, k, v gradients (adjoint seed `g`) of multi_head_attention
    in its former taped form: the whole (heads, T_q, T_k) exponential store
    kept from the forward, and an adjoint that loops over heads."""
    dt = q.dtype
    tq, c = q.shape
    tk, d = k.shape[0], c // heads

    def split(x):
        return np.ascontiguousarray(x.reshape(len(x), heads, d).transpose(1, 0, 2))

    def merge(x):
        return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(x.shape[1], c)

    scale = dt.type(1.0 / np.sqrt(d))
    log2e = dt.type(math.log2(math.e))
    qh, kh = split(q), split(k)
    v1 = np.ones((heads, tk, d + 1), dtype=dt)
    v1[..., :d] = split(v)
    big = np.finfo(dt).max
    bound = scale * np.sqrt((qh * qh).sum(axis=2).max(axis=1)
                            * (kh * kh).sum(axis=2).max(axis=1))
    vmax = np.maximum(np.abs(v1[..., :d]).max(axis=(1, 2)), 1.0)
    shift_free = (bound <= np.log(big) / 4) & (tk * vmax <= big ** 0.75)
    e = np.empty((heads, tq, tk), dtype=dt)
    for j in range(heads):
        if shift_free[j]:
            np.matmul(qh[j] * (scale * log2e), kh[j].T, out=e[j])
        else:
            np.matmul(qh[j] * scale, kh[j].T, out=e[j])
            e[j] -= e[j].max(axis=1, keepdims=True)
            e[j] *= log2e
    np.exp2(e, out=e)
    av = np.matmul(e, v1)
    sums = av[..., d:]
    oh = av[..., :d] / sums
    gs1 = np.empty((heads, tq, d + 1), dtype=dt)
    gs = gs1[..., :d]
    np.divide(split(g), sums, out=gs)
    gs1[..., d] = -(gs * oh).sum(axis=2)
    qs = qh * scale
    dq, dk, dv = np.empty_like(qs), np.empty_like(kh), np.empty_like(kh)
    ds = np.empty((tq, tk), dtype=dt)
    for j in range(heads):
        np.matmul(e[j].T, gs[j], out=dv[j])
        np.matmul(gs1[j], v1[j].T, out=ds)
        ds *= e[j]
        np.matmul(ds, kh[j], out=dq[j])
        np.matmul(ds.T, qs[j], out=dk[j])
    dq *= scale
    return merge(oh), merge(dq), merge(dk), merge(dv)


def attend_with_grads(attend, arrays, probe: tc.Tensor):
    """Output of `attend` on q, k, v built from `arrays` in the probe's
    dtype, and the q, k, v gradients of sum(output * probe), whose adjoint,
    `probe`, seeds the output."""
    dtype = probe.dtype
    leaves = [tc.Tensor(a, dtype=dtype) for a in arrays]
    tape = tc.Tape()
    tape.watch_all(zip("qkv", leaves))
    with tc.record_on(tape):
        out = attend(*leaves)
    rec = tc.backward(probe, tape, out)
    return out.data, [rec[n].data for n in "qkv"]


# --- matmul ------------------------------------------------------------------


def test_matmul_identity():
    eye = tc.Tensor(np.eye(2), dtype=np.float64)
    m = tc.Tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    npt.assert_array_equal(tc.matmul(eye, m).data, m.data)


def test_matmul_hand_case():
    a = tc.Tensor([[1.0, 2.0]], dtype=np.float64)
    b = tc.Tensor([[3.0], [4.0]], dtype=np.float64)
    npt.assert_array_equal(tc.matmul(a, b).data, [[11.0]])


def test_matmul_against_triple_loop(rng):
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    got = tc.matmul(tc.Tensor(a, dtype=np.float64), tc.Tensor(b, dtype=np.float64))
    assert np.max(np.abs(got.data - matmul_oracle(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    a = tc.Tensor(np.zeros((2, 3)))
    b = tc.Tensor(np.zeros((4, 2)))
    with pytest.raises(tc.DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
        tc.matmul(a, b)


def test_matmul_associativity(rng):
    a = tc.Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
    b = tc.Tensor(rng.standard_normal((6, 5)), dtype=np.float64)
    c = tc.Tensor(rng.standard_normal((5, 3)), dtype=np.float64)
    left = tc.matmul(tc.matmul(a, b), c)
    right = tc.matmul(a, tc.matmul(b, c))
    assert np.max(np.abs(left.data - right.data)) < 1e-9


# --- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    out = tc.softmax_rows(tc.Tensor([[0.0, 0.0]], dtype=np.float64))
    npt.assert_array_equal(out.data, [[0.5, 0.5]])


def test_softmax_shift_invariance_no_overflow():
    out = tc.softmax_rows(tc.Tensor([[1000.0, 1000.0]], dtype=np.float64))
    assert np.all(np.isfinite(out.data))
    npt.assert_array_equal(out.data, [[0.5, 0.5]])


def test_softmax_against_direct_oracle():
    row = np.array([1.0, 2.0, 3.0])
    got = tc.softmax_rows(tc.Tensor(row[None, :], dtype=np.float64))
    assert np.max(np.abs(got.data[0] - softmax_oracle(row))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_sum_to_one(rows):
    m = tc.Tensor(np.array(rows), dtype=np.float64)
    out = tc.softmax_rows(m)
    assert np.all(out.data >= 0)
    npt.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


# --- pooling ------------------------------------------------------------------


def test_pool_window_arithmetic():
    m = tc.Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(2, 2, 1), dtype=np.float64)
    assert tc.pool2d(m, 2, "avg").data[0, 0, 0] == 4.0
    assert tc.pool2d(m, 2, "max").data[0, 0, 0] == 7.0


def test_pool_constant_invariance(rng):
    m = tc.Tensor(np.full((4, 6, 3), 2.5), dtype=np.float64)
    for kind in ("avg", "max"):
        out = tc.pool2d(m, 2, kind)
        npt.assert_array_equal(out.data, np.full((2, 3, 3), 2.5))


def test_pool_max_dominates_avg(rng):
    m = tc.Tensor(rng.standard_normal((6, 4, 2)), dtype=np.float64)
    avg = tc.pool2d(m, 2, "avg").data
    mx = tc.pool2d(m, 2, "max").data
    assert np.all(mx >= avg)


def test_pool_divisibility_error():
    m = tc.Tensor(np.zeros((3, 4, 1)))
    with pytest.raises(tc.ConfigurationError):
        tc.pool2d(m, 2, "avg")


def test_pool_max_tie_break_first_index():
    # both window elements equal: gradient must land on the row-major first
    m = tc.Tensor(np.array([[2.0, 2.0], [0.0, 1.0]]).reshape(2, 2, 1), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(m, "m")
    with tc.record_on(tape):
        out = tc.pool2d(m, 2, "max")
    rec = tc.backward(tc.full(out.shape, 1.0, dtype=np.float64), tape, out)
    npt.assert_array_equal(
        rec["m"].data, np.array([[1.0, 0.0], [0.0, 0.0]]).reshape(2, 2, 1)
    )


@pytest.mark.parametrize("s", [2, 3])
def test_pool_max_taped_matches_untaped_and_routes_to_first_max(s, rng):
    # integer values in a small range give ties inside most windows
    x = rng.integers(0, 3, size=(2 * s, 3 * s, 2)).astype(np.float64)
    m = tc.Tensor(x, dtype=np.float64)
    untaped = tc.pool2d(m, s, "max").data
    tape = tc.Tape()
    tape.watch(m, "m")
    with tc.record_on(tape):
        out = tc.pool2d(m, s, "max")
    npt.assert_array_equal(out.data, untaped)
    grad = tc.backward(tc.full(out.shape, 1.0, dtype=np.float64), tape, out)["m"].data
    expected = np.zeros_like(x)
    for a in range(2):
        for b in range(3):
            for ch in range(2):
                win = x[a * s:(a + 1) * s, b * s:(b + 1) * s, ch]
                i, j = divmod(int(np.argmax(win)), s)  # first maximum, row-major
                expected[a * s + i, b * s + j, ch] = 1.0
    npt.assert_array_equal(grad, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["avg", "max"])
@pytest.mark.parametrize("s", [2, 3])
def test_pool_adjoint_matches_argmax_reference_bytes(dtype, kind, s, rng):
    # few distinct values give ties in most windows; signed gradients
    # check that untouched entries stay +0.0
    x = rng.integers(-2, 2, size=(3 * s, 4 * s, 5)).astype(dtype)
    g = rng.standard_normal((3, 4, 5)).astype(dtype)
    xt = tc.Tensor(x, dtype=dtype)
    tape = tc.Tape()
    tape.watch(xt, "x")
    with tc.record_on(tape):
        out = tc.pool2d(xt, s, kind)
    assert out.data.tobytes() == tc.pool2d(xt, s, kind).data.tobytes()
    grad = tc.backward(tc.Tensor(g, dtype=dtype), tape, out)["x"].data
    ref = pool_adjoint_argmax_reference(x, g, s, kind)
    assert grad.dtype == ref.dtype == np.dtype(dtype)
    assert grad.tobytes() == ref.tobytes()


def test_pool_gradients_match_finite_differences(rng):
    x = rng.standard_normal((4, 4, 2))
    for kind in ("avg", "max"):

        def loss_fn(t, kind=kind):
            out = tc.pool2d(t, 2, kind)
            return float((out.data ** 2).sum())

        tape = tc.Tape()
        xt = tc.Tensor(x, dtype=np.float64)
        tape.watch(xt, "x")
        with tc.record_on(tape):
            out = tc.pool2d(xt, 2, kind)
        rec = tc.backward(tc.Tensor(out.data + out.data), tape, out)  # sum(out^2)
        assert rel_err(rec["x"].data, fd_gradient(loss_fn, xt)) < 1e-4


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("s", [2, 3, 4])
def test_pool_avg_matches_gather_mean_reference(dtype, s, rng):
    x = (rng.standard_normal((3 * s, 2 * s, 5)) * 3).astype(dtype)
    out = tc.pool2d(tc.Tensor(x, dtype=dtype), s, "avg").data
    ref = pool_avg_gather_mean(x, s)
    assert out.dtype == ref.dtype == np.dtype(dtype)
    if s == 2:
        assert out.tobytes() == ref.tobytes()
    else:
        # two summation orders of s*s terms, each within s*s rounding
        # steps of the exact mean
        tol = 2 * s * s * np.finfo(dtype).eps * np.abs(x).max()
        assert np.max(np.abs(out - ref)) <= tol


# --- bilinear resize ----------------------------------------------------------


def test_resize_matrix_is_cached_and_read_only(rng):
    tc._resize_matrix.cache_clear()
    xt = tc.Tensor(rng.standard_normal((5, 7, 3)), dtype=np.float32)
    cold = tc.bilinear_resize(xt, 11, 4).data
    warm = tc.bilinear_resize(xt, 11, 4).data
    assert cold.tobytes() == warm.tobytes()
    dt = np.dtype(np.float32)
    r = tc._resize_matrix(5, 11, dt)
    assert tc._resize_matrix(5, 11, dt) is r
    npt.assert_array_equal(r, tc._resize_matrix.__wrapped__(5, 11, dt))
    with pytest.raises(ValueError):
        r[0, 0] = 2.0


def test_bilinear_same_size_is_bit_identical(rng):
    x = rng.standard_normal((5, 7, 3))
    t = tc.Tensor(x, dtype=np.float64)
    out = tc.bilinear_resize(t, 5, 7)
    npt.assert_array_equal(out.data, x)


def test_bilinear_constant_invariance():
    t = tc.Tensor(np.full((3, 3, 2), 1.25), dtype=np.float64)
    out = tc.bilinear_resize(t, 7, 5)
    npt.assert_array_equal(out.data, np.full((7, 5, 2), 1.25))


def test_bilinear_upsample_against_point_oracle():
    x = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(2, 2, 1)
    out = tc.bilinear_resize(tc.Tensor(x, dtype=np.float64), 4, 4)
    for i in range(4):
        for j in range(4):
            expected = bilinear_point_oracle(x, 4, 4, i, j, 0)
            assert abs(out.data[i, j, 0] - expected) < 1e-12, (i, j)


def test_bilinear_respects_input_bounds(rng):
    x = rng.standard_normal((4, 6, 2))
    out = tc.bilinear_resize(tc.Tensor(x, dtype=np.float64), 9, 5).data
    assert out.min() >= x.min() - 1e-12
    assert out.max() <= x.max() + 1e-12


def test_bilinear_gradient_matches_finite_differences(rng):
    x = rng.standard_normal((3, 4, 2))
    xt = tc.Tensor(x, dtype=np.float64)

    def loss_fn(t):
        out = tc.bilinear_resize(t, 5, 6)
        return float((out.data ** 2).sum())

    tape = tc.Tape()
    tape.watch(xt, "x")
    with tc.record_on(tape):
        out = tc.bilinear_resize(xt, 5, 6)
    rec = tc.backward(tc.Tensor(out.data + out.data), tape, out)  # sum(out^2)
    assert rel_err(rec["x"].data, fd_gradient(loss_fn, xt)) < 1e-4


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape,out_hw", [((5, 7, 3), (11, 13)), ((9, 7, 2), (4, 3)),
                                          ((3, 5, 4), (7, 2))])
def test_bilinear_matches_four_corner_reference(dtype, shape, out_hw, rng):
    x = rng.standard_normal(shape).astype(dtype)
    g = rng.standard_normal(out_hw + shape[2:]).astype(dtype)
    xt = tc.Tensor(x, dtype=dtype)
    tape = tc.Tape()
    tape.watch(xt, "x")
    with tc.record_on(tape):
        out = tc.bilinear_resize(xt, *out_hw)
    grad = tc.backward(tc.Tensor(g, dtype=dtype), tape, out)["x"].data
    tol = DTYPE_TOL[dtype]
    assert out.dtype == grad.dtype == np.dtype(dtype)
    assert np.max(np.abs(out.data - bilinear_four_corner(x, *out_hw))) < tol
    assert np.max(np.abs(grad - bilinear_four_corner_adjoint(g, *shape[:2]))) < tol


# --- backward / tape ----------------------------------------------------------


def test_backward_linear_case(rng):
    w = tc.Tensor(rng.standard_normal((3, 4)), dtype=np.float64)
    x = tc.Tensor(rng.standard_normal((4, 2)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(w, "w")
    with tc.record_on(tape):
        y = tc.matmul(w, x)
    rec = tc.backward(tc.full(y.shape, 1.0, dtype=np.float64), tape, y)  # sum(Wx)
    # d(sum(Wx))/dW = column sums of x broadcast across rows
    expected = np.tile(x.data.sum(axis=1), (3, 1))
    npt.assert_allclose(rec["w"].data, expected, atol=1e-12)


def test_backward_softmax_row_sums_have_zero_gradient(rng):
    v = tc.Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(v, "v")
    with tc.record_on(tape):
        y = tc.softmax_rows(v)
    rec = tc.backward(tc.full(y.shape, 1.0, dtype=np.float64), tape, y)
    npt.assert_allclose(rec["v"].data, 0.0, atol=1e-12)


def test_backward_before_forward_is_state_error():
    tape = tc.Tape()
    loss = tc.scalar(1.0)
    with pytest.raises(tc.TapeStateError):
        tc.backward(tc.scalar(1.0), tape, loss)


def test_backward_from_an_unrecorded_tensor_is_state_error(rng):
    # a loss taken outside record_on, or an input map, has no step on the
    # tape: a sweep from it would return no gradient at all
    x = tc.Tensor(rng.standard_normal((2, 2)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(x, "x")
    with tc.record_on(tape):
        tc.add(x, x)
    for output in (tc.add(x, x), x):
        with pytest.raises(tc.TapeStateError, match="did not record"):
            tc.backward(tc.Tensor(np.ones(output.shape), dtype=np.float64), tape, output)


def test_backward_unused_parameter_absent(rng):
    used = tc.Tensor(rng.standard_normal((2, 2)), dtype=np.float64)
    unused = tc.Tensor(rng.standard_normal((2, 2)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(used, "used")
    tape.watch(unused, "unused")
    with tc.record_on(tape):
        out = tc.add(used, used)
    rec = tc.backward(tc.full(out.shape, 1.0, dtype=np.float64), tape, out)
    assert "used" in rec
    assert "unused" not in rec


def test_backward_accumulates_across_reuse(rng):
    x = tc.Tensor(rng.standard_normal((3, 3)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(x, "x")
    with tc.record_on(tape):
        out = tc.add(x, tc.add(x, x))
    rec = tc.backward(tc.full(out.shape, 1.0, dtype=np.float64), tape, out)
    npt.assert_array_equal(rec["x"].data, 3.0)


def test_backward_drops_consumed_gradients(rng):
    # Chain x -> h1 -> ... -> h6, seeded at h6, with h3 watched.  By the time a
    # step's adjoint runs, every gradient handed to an earlier adjoint of the
    # sweep is gone, except the watched h3's.
    x = tc.Tensor(rng.standard_normal((8, 8)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(x, "x")
    with tc.record_on(tape):
        h = x
        for i in range(1, 7):
            h = tc.const_scale(h, 0.5)
            if i == 3:
                tape.watch(h, "h3")
    seen, alive = [], []

    def spy(fn):
        def wrapped(g):
            alive.append(sum(r() is not None for r in seen))
            seen.append(weakref.ref(g))
            return fn(g)
        return wrapped

    tape._steps = [(out, parents, spy(fn)) for out, parents, fn in tape._steps]
    rec = tc.backward(tc.full(h.shape, 1.0, dtype=np.float64), tape, h)
    # adjoints run for h6, h5, h4, then h3 (watched), h2, h1
    assert alive == [0, 0, 0, 0, 1, 1]
    npt.assert_array_equal(rec["h3"].data, np.full((8, 8), 0.125))
    npt.assert_array_equal(rec["x"].data, np.full((8, 8), 0.5 ** 6))


def test_backward_rejects_seed_of_other_dtype():
    x = tc.Tensor(np.ones((2, 2)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(x, "x")
    with tc.record_on(tape):
        out = tc.add(x, x)
    with pytest.raises(tc.ConfigurationError):
        tc.backward(tc.full(out.shape, 1.0, dtype=np.float32), tape, out)


def test_composed_graph_matches_finite_differences(rng):
    # exercise matmul + softmax + pooling + resize + elementwise in one graph
    w = tc.Tensor(rng.standard_normal((4, 4)) * 0.4, dtype=np.float64)
    x = rng.standard_normal((6, 4))

    def forward(wt):
        toks = tc.matmul(tc.Tensor(x, dtype=np.float64), wt)
        att = tc.softmax_rows(toks)
        fm = tc.reshape(att, (2, 3, 4))
        up = tc.bilinear_resize(fm, 4, 6)
        return tc.pool2d(up, 2, "max")

    tape = tc.Tape()
    tape.watch(w, "w")
    with tc.record_on(tape):
        pooled = forward(w)
    # mean(pooled^2) seeds `pooled` with its adjoint, 2 pooled / n
    rec = tc.backward(tc.Tensor(pooled.data * (2 / pooled.size)), tape, pooled)
    fd = fd_gradient(lambda t: float(np.mean(forward(t).data ** 2)), w)
    assert rel_err(rec["w"].data, fd) < 1e-4


# --- composite ops -------------------------------------------------------------

COMPOSITE_PARENTS = {"scaled_sum": ("a", "x", "b", "y"),
                     "feed_forward": ("x", "w1", "b1", "w2", "b2"),
                     "sigmoid_blend": ("l", "avg", "max"),
                     "mean_squared_error": ("a", "b")}


def composite_args(op, rng, dtype):
    def t(*shape):
        return tc.Tensor(rng.standard_normal(shape), dtype=dtype)

    if op == "scaled_sum":
        return (tc.scalar(0.7, dtype=dtype), t(4, 6), tc.scalar(-1.3, dtype=dtype), t(4, 6))
    if op == "feed_forward":
        return (t(4, 6), t(6, 5), t(5), t(5, 3), t(3))
    if op == "mean_squared_error":
        return (t(4, 6, 3), t(4, 6, 3))
    return (tc.scalar(-0.4, dtype=dtype), t(2, 3, 4), t(2, 3, 4))


# The composition of elementary ops that each composite op stands for, in
# the order the op computes it.
COMPOSITIONS = {
    "scaled_sum": lambda a, x, b, y: tc.add(tc.scalar_mul(a, x), tc.scalar_mul(b, y)),
    "feed_forward": lambda x, w1, b1, w2, b2: tc.add(
        tc.matmul(tc.relu(tc.add(tc.matmul(x, w1), b1)), w2), b2),
    "sigmoid_blend": lambda l, avg, mx: _blend_composition(tc.sigmoid(l), avg, mx),
    "mean_squared_error": lambda a, b: _squared_error_composition(tc.sub(a, b)),
}


def _squared_error_composition(diff):
    return tc.mean_all(tc.mul(diff, diff))


def _blend_composition(lam, avg, mx):
    one = tc.scalar(1.0, dtype=avg.dtype)
    return tc.add(tc.scalar_mul(lam, avg), tc.scalar_mul(tc.sub(one, lam), mx))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(COMPOSITE_PARENTS))
def test_composite_op_is_byte_equal_to_its_composition(op, dtype, rng):
    args = composite_args(op, rng, dtype)
    probe = rng.standard_normal(getattr(tc, op)(*args).shape).astype(dtype)
    untaped = getattr(tc, op)(*args).data

    def taped(fn):
        tape = tc.Tape()
        tape.watch_all(zip(COMPOSITE_PARENTS[op], args))
        with tc.record_on(tape):
            out = fn(*args)
        rec = tc.backward(tc.Tensor(probe, dtype=dtype), tape, out)
        return tape.num_steps, [out.data] + [rec[n].data for n in COMPOSITE_PARENTS[op]]

    steps, got = taped(getattr(tc, op))
    _, want = taped(COMPOSITIONS[op])
    assert steps == 1
    assert untaped.tobytes() == want[0].tobytes()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("op, bad", [
    ("scaled_sum", {0: (2,)}), ("scaled_sum", {3: (4, 5)}),
    ("feed_forward", {1: (5, 5)}), ("feed_forward", {2: (4,)}), ("feed_forward", {4: (1, 3)}),
    ("sigmoid_blend", {0: (2,)}), ("sigmoid_blend", {2: (2, 3, 5)}),
    ("mean_squared_error", {1: (4, 6)}),
    # a second coefficient, and an operand of the wrong rank
    ("scaled_sum", {2: (2,)}), ("scaled_sum", {1: (4, 6, 1)}), ("feed_forward", {0: (4, 6, 1)}),
    ("sigmoid_blend", {1: (6, 4)}), ("mean_squared_error", {0: (72,)}),
])
def test_composite_op_rejects_nonconforming_operands(op, bad, rng):
    # the ops test their operands in one condition and call the helpers
    # that name the error only on a mismatch: a wrong extent or rank is a
    # DimensionError, and a mixed precision in any operand a
    # ConfigurationError, whichever operand it is
    args = list(composite_args(op, rng, np.float64))
    for i, shape in bad.items():
        args[i] = tc.Tensor(np.ones(shape), dtype=np.float64)
    with pytest.raises(tc.DimensionError):
        getattr(tc, op)(*args)
    for i in range(len(args)):
        args = list(composite_args(op, rng, np.float64))
        args[i] = tc.Tensor(args[i].data, dtype=np.float32)
        with pytest.raises(tc.ConfigurationError):
            getattr(tc, op)(*args)


def test_scalar_mul_and_concat_cols_reject_nonconforming_operands():
    wide, narrow = np.float64, np.float32
    x = tc.Tensor(np.ones((3, 2)), dtype=wide)
    with pytest.raises(tc.DimensionError):
        tc.scalar_mul(tc.Tensor(np.ones(2), dtype=wide), x)
    with pytest.raises(tc.ConfigurationError):
        tc.scalar_mul(tc.scalar(0.5, dtype=narrow), x)
    for parts in ([], [x, tc.Tensor(np.ones((3, 2, 1)), dtype=wide)],
                  [tc.Tensor(np.ones(3), dtype=wide), x],
                  [x, tc.Tensor(np.ones((4, 2)), dtype=wide)],
                  # a rank is tested before any precision, as the parts come
                  [x, tc.Tensor(np.ones((3, 2)), dtype=narrow), tc.Tensor(np.ones(3), dtype=wide)]):
        with pytest.raises(tc.DimensionError):
            tc.concat_cols(parts)
    with pytest.raises(tc.ConfigurationError):
        tc.concat_cols([x, tc.Tensor(np.ones((3, 1)), dtype=narrow), x])


def test_untaped_feed_forward_allocates_no_rectified_copy(rng):
    x, w1, b1, w2, b2 = (tc.Tensor(rng.standard_normal(s), dtype=np.float32)
                         for s in ((256, 64), (64, 128), (128,), (128, 64), (64,)))
    hidden_bytes = 256 * 128 * 4
    tracemalloc.start()
    try:
        out = tc.feed_forward(x, w1, b1, w2, b2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the hidden layer, the output and numpy's in-place broadcast buffer; a
    # rectified copy of the hidden layer would add hidden_bytes
    assert peak < out.data.nbytes + 1.5 * hidden_bytes


@pytest.mark.parametrize("opname", [
    "matmul", "transpose", "add", "add_bias", "add_bias_rank3", "sub", "mul", "scalar_mul",
    "const_scale", "relu", "sigmoid", "softmax_rows", "reshape", "col_slice",
    "concat_cols", "pool_avg", "pool_max", "bilinear", "space_to_channel",
    "sum_all", "mean_all", "attention_q", "attention_k", "attention_v",
    "scaled_sum_a", "scaled_sum_x", "scaled_sum_b", "scaled_sum_y",
    "feed_forward_x", "feed_forward_w1", "feed_forward_b1", "feed_forward_w2",
    "feed_forward_b2", "sigmoid_blend_l", "sigmoid_blend_avg", "sigmoid_blend_max",
])
def test_every_op_adjoint_matches_finite_differences(opname, rng):
    x = tc.Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
    m3 = tc.Tensor(rng.standard_normal((4, 6, 2)), dtype=np.float64)
    other = tc.Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
    rhs = tc.Tensor(rng.standard_normal((6, 3)), dtype=np.float64)
    bias = tc.Tensor(rng.standard_normal(6), dtype=np.float64)
    coeff = tc.scalar(0.7, dtype=np.float64)
    probe2 = rng.standard_normal((4, 6))
    keys = tc.Tensor(rng.standard_normal((5, 6)), dtype=np.float64)
    values = tc.Tensor(rng.standard_normal((5, 6)), dtype=np.float64)
    bias3 = tc.Tensor(rng.standard_normal(2), dtype=np.float64)

    builders = {
        "matmul": (x, lambda t: tc.matmul(t, rhs)),
        "transpose": (x, tc.transpose),
        "add": (x, lambda t: tc.add(t, other)),
        "add_bias": (bias, lambda t: tc.add(x, t)),
        "add_bias_rank3": (bias3, lambda t: tc.add(m3, t)),
        "sub": (x, lambda t: tc.sub(t, other)),
        "mul": (x, lambda t: tc.mul(t, other)),
        "scalar_mul": (coeff, lambda t: tc.scalar_mul(t, x)),
        "const_scale": (x, lambda t: tc.const_scale(t, -1.3)),
        "relu": (x, tc.relu),
        "sigmoid": (x, tc.sigmoid),
        "softmax_rows": (x, tc.softmax_rows),
        "reshape": (x, lambda t: tc.reshape(t, (3, 8))),
        "col_slice": (x, lambda t: tc.col_slice(t, 1, 4)),
        "concat_cols": (x, lambda t: tc.concat_cols([t, other])),
        "pool_avg": (m3, lambda t: tc.pool2d(t, 2, "avg")),
        "pool_max": (m3, lambda t: tc.pool2d(t, 2, "max")),
        "bilinear": (m3, lambda t: tc.bilinear_resize(t, 7, 5)),
        "space_to_channel": (m3, lambda t: tc.space_to_channel(t, 2)),
        "sum_all": (x, tc.sum_all),
        "mean_all": (x, tc.mean_all),
        "attention_q": (x, lambda t: tc.multi_head_attention(t, keys, values, 2)),
        "attention_k": (keys, lambda t: tc.multi_head_attention(x, t, values, 2)),
        "attention_v": (values, lambda t: tc.multi_head_attention(x, keys, t, 2)),
    }
    # the composite ops, once per parent
    for op, parents in COMPOSITE_PARENTS.items():
        args = composite_args(op, rng, np.float64)
        for i, parent in enumerate(parents):
            builders[f"{op}_{parent}"] = (
                args[i], lambda t, op=op, args=args, i=i:
                getattr(tc, op)(*args[:i], t, *args[i + 1:]))
    leaf, op = builders[opname]

    tape = tc.Tape()
    tape.watch(leaf, "p")
    with tc.record_on(tape):
        out = op(leaf)
    # sum(out^2) seeds `out` with its adjoint, 2 out
    rec = tc.backward(tc.Tensor(out.data + out.data), tape, out)
    fd = fd_gradient(lambda t: float(np.sum(op(t).data ** 2)), leaf)
    assert rel_err(rec["p"].data, fd) < 1e-4, opname


def test_determinism_bitwise(rng):
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))

    def run():
        t = tc.softmax_rows(tc.matmul(tc.Tensor(a, dtype=np.float64), tc.Tensor(b, dtype=np.float64)))
        return tc.pool2d(tc.reshape(t, (4, 2, 8)), 2, "avg").data

    first, second = run(), run()
    npt.assert_array_equal(first, second)


# --- multi-head attention ---------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("heads,tq,tk", [(1, 5, 5), (2, 6, 4), (4, 3, 9)])
def test_attention_matches_per_head_composition(dtype, heads, tq, tk, rng):
    c = 8
    arrays = [rng.standard_normal((tq, c)) * 2, rng.standard_normal((tk, c)) * 2,
              rng.standard_normal((tk, c))]
    probe = tc.Tensor(rng.standard_normal((tq, c)), dtype=dtype)
    out, grads = attend_with_grads(
        lambda q, k, v: tc.multi_head_attention(q, k, v, heads), arrays, probe)
    ref_out, ref_grads = attend_with_grads(
        lambda q, k, v: per_head_attention(q, k, v, heads), arrays, probe)
    tol = DTYPE_TOL[dtype]
    assert out.dtype == np.dtype(dtype)
    assert np.max(np.abs(out - ref_out)) < tol
    for name, g, ref_g in zip("qkv", grads, ref_grads):
        assert g.dtype == np.dtype(dtype)
        assert np.max(np.abs(g - ref_g)) < tol, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_taped_and_untaped_forward_are_bit_identical(dtype, rng):
    q = tc.Tensor(rng.standard_normal((12, 16)) * 3, dtype=dtype)
    k = tc.Tensor(rng.standard_normal((10, 16)) * 3, dtype=dtype)
    v = tc.Tensor(rng.standard_normal((10, 16)), dtype=dtype)
    untaped, untaped_w = tc.multi_head_attention(q, k, v, 4), attention_probs(q, k, 4)
    tape = tc.Tape()
    with tc.record_on(tape):
        taped = tc.multi_head_attention(q, k, v, 4)
    assert tape.num_steps == 1
    with tc.record_on(tc.Tape()):
        taped_w = attention_probs(q, k, 4)
    npt.assert_array_equal(taped.data, untaped.data)
    npt.assert_array_equal(taped_w, untaped_w)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("block_heads", [0, 1, 3])
def test_attention_untaped_head_blocks_match_taped_all_heads(dtype, block_heads, rng,
                                                             monkeypatch):
    # Taped and untaped calls share one block policy.  A budget below one
    # head's scores gives query-row tiles of one row; with 3 the last block
    # is partial.  Head 0's scores are large enough to take the shifted
    # path, so both paths share a block.
    tq, tk, heads = 12, 10, 4
    grow = np.ones(16)
    grow[:4] = 30.0
    q = tc.Tensor(rng.standard_normal((tq, 16)) * grow, dtype=dtype)
    k = tc.Tensor(rng.standard_normal((tk, 16)) * grow, dtype=dtype)
    v = tc.Tensor(rng.standard_normal((tk, 16)), dtype=dtype)
    monkeypatch.setattr(tc, "_ATTENTION_BLOCK_ELEMENTS", block_heads * tq * tk)
    with tc.record_on(tc.Tape()):
        taped, taped_w = tc.multi_head_attention(q, k, v, heads), attention_probs(q, k, heads)
    untaped, untaped_w = tc.multi_head_attention(q, k, v, heads), attention_probs(q, k, heads)
    assert len(untaped_w) == heads
    npt.assert_array_equal(untaped.data, taped.data)
    npt.assert_array_equal(untaped_w, taped_w)


def test_attention_block_policy():
    budget = tc._ATTENTION_BLOCK_ELEMENTS
    assert budget == 2 ** 16
    # whole heads while one head's scores fit, else query-row tiles of one
    # head; the benchmark's shapes (gradcheck, training, fuse) get these tiles
    assert tc._attention_blocks(8, 16, 16) == (8, 16)
    assert tc._attention_blocks(8, 256, 256) == (1, 256)
    assert tc._attention_blocks(8, 1024, 1024) == (1, 64)
    assert tc._attention_blocks(2, 3, budget + 1) == (1, 1)


def mixed_shift_operands(rng, dtype, tq=12, tk=10, heads=4, d=4):
    """q, k, v whose even heads have scores far past the dtype's shift-free
    bound and whose odd heads stay small."""
    grow = np.tile(np.repeat([30.0, 1.0], d), heads // 2)
    if dtype == np.float64:
        grow[grow > 1] = 300.0  # the f64 bound is 177
    return [rng.standard_normal((tq, heads * d)) * grow,
            rng.standard_normal((tk, heads * d)) * grow,
            rng.standard_normal((tk, heads * d))]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [1, 5])
def test_attention_row_tiles_match_whole_heads(dtype, rows, rng, monkeypatch):
    # tiles of 5 query rows leave a partial last tile of 2 rows
    tq, tk, heads = 12, 10, 4
    arrays = mixed_shift_operands(rng, dtype, tq, tk, heads)
    probe = tc.Tensor(rng.standard_normal((tq, 16)), dtype=dtype)
    q, k, v = (tc.Tensor(a, dtype=dtype) for a in arrays)
    whole, whole_grads = attend_with_grads(
        lambda q, k, v: tc.multi_head_attention(q, k, v, heads), arrays, probe)
    whole_w = attention_probs(q, k, heads)
    monkeypatch.setattr(tc, "_ATTENTION_BLOCK_ELEMENTS", rows * tk)
    assert tc._attention_blocks(heads, tq, tk) == (1, rows)
    tiled, tiled_grads = attend_with_grads(
        lambda q, k, v: tc.multi_head_attention(q, k, v, heads), arrays, probe)
    untaped = tc.multi_head_attention(q, k, v, heads)
    npt.assert_array_equal(untaped.data, tiled)
    tol = DTYPE_TOL[dtype]
    for name, a, b in zip(("out", "q", "k", "v"), [tiled, *tiled_grads],
                          [whole, *whole_grads]):
        assert np.max(np.abs(a - b)) < tol, name
    for a, b in zip(attention_probs(q, k, heads), whole_w):
        assert np.max(np.abs(a - b)) < tol


@pytest.mark.parametrize("budget_heads", [2, 4])
def test_attention_block_mixing_shifted_and_shift_free_heads(budget_heads, rng,
                                                             monkeypatch):
    # every block holds a shifted head beside a shift-free one
    dtype, tq, tk, heads = np.float64, 12, 10, 4
    arrays = mixed_shift_operands(rng, dtype, tq, tk, heads)
    scores = [arrays[0][:, cols] @ arrays[1][:, cols].T / 2
              for cols in (slice(0, 4), slice(4, 8))]
    assert np.abs(scores[0]).max() > np.log(np.finfo(dtype).max) / 4
    assert np.abs(scores[1]).max() < 10
    monkeypatch.setattr(tc, "_ATTENTION_BLOCK_ELEMENTS", budget_heads * tq * tk)
    probe = tc.Tensor(rng.standard_normal((tq, 16)), dtype=dtype)
    out, grads = attend_with_grads(
        lambda q, k, v: tc.multi_head_attention(q, k, v, heads), arrays, probe)
    ref_out, ref_grads = attend_with_grads(
        lambda q, k, v: per_head_attention(q, k, v, heads), arrays, probe)
    for name, a, b in zip(("out", "q", "k", "v"), [out, *grads], [ref_out, *ref_grads]):
        assert np.all(np.isfinite(a)), name
        assert np.max(np.abs(a - b)) < DTYPE_TOL[dtype], name


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_shifted_fallback_matches_per_head_composition(heads, rng):
    # In head 0 queries and keys share a large component, so every scaled
    # score exceeds 1000, where an unshifted f32 exp overflows, while scores
    # within a row differ by O(1).  Entries are multiples of 1/64 and
    # d = 4 makes the scale 1/2, so both kernels get the exact scores.
    # With two heads, head 1 stays small and runs unshifted.
    dtype, tq, tk, d = np.float32, 7, 5, 4
    c = d * heads
    common = np.zeros(c)
    common[:d] = 24.0
    spread = np.full(c, 0.25)
    spread[:d] = 1 / 64
    arrays = [common + rng.integers(-2, 3, (tq, c)) * np.where(common > 0, 1.0, 0.25),
              common + rng.integers(-4, 5, (tk, c)) * spread,
              rng.standard_normal((tk, c))]
    scores = arrays[0][:, :d] @ arrays[1][:, :d].T / np.sqrt(d)
    assert scores.min() > 1000 > np.log(np.finfo(dtype).max)
    probe = tc.Tensor(rng.standard_normal((tq, c)), dtype=dtype)
    out, grads = attend_with_grads(
        lambda q, k, v: tc.multi_head_attention(q, k, v, heads), arrays, probe)
    ref_out, ref_grads = attend_with_grads(
        lambda q, k, v: per_head_attention(q, k, v, heads), arrays, probe)
    for name, a, b in zip(("out", "q", "k", "v"), [out, *grads], [ref_out, *ref_grads]):
        assert np.all(np.isfinite(a)), name
        assert np.max(np.abs(a - b)) < DTYPE_TOL[dtype], name


def test_attention_huge_values_take_shifted_path(rng):
    # Scores near 19 pass the f32 score bound (ln(M) / 4 = 22.2), but with
    # |v| ~ 1e31 an unshifted E V would reach ~1e40 and overflow.
    q = tc.Tensor(np.full((3, 1), 4.4), dtype=np.float32)
    k = tc.Tensor(4.4 - 0.1 * np.arange(5)[:, None], dtype=np.float32)
    v = tc.Tensor((1.0 + rng.random((5, 1))) * 1e31, dtype=np.float32)
    out = tc.multi_head_attention(q, k, v, 1).data
    ref = per_head_attention(q, k, v, 1).data
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - ref)) < DTYPE_TOL[np.float32] * np.abs(v.data).max()


def test_attention_weights_match_softmax_of_scaled_scores(rng):
    q = rng.standard_normal((5, 6))
    k = rng.standard_normal((7, 6))
    weights = attention_probs(*(tc.Tensor(a, dtype=np.float64) for a in (q, k)), 3)
    assert len(weights) == 3
    for j, probs in enumerate(weights):
        cols = slice(2 * j, 2 * j + 2)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(2)
        for row, got in zip(scores, probs):
            assert np.max(np.abs(got - softmax_oracle(row))) < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("budget_heads,budget_rows", [
    (1, None), (3, None), (4, None), (12, None), (16, None), (None, 1), (None, 5)])
def test_attention_adjoint_matches_stored_e_reference(dtype, budget_heads, budget_rows,
                                                      rng, monkeypatch):
    # The adjoint recomputes every block's E in the forward's own blocks.
    # Blocks of whole heads must give the stored-E adjoint's bytes: one
    # head per block; three with a partial last block; all four, at budgets
    # of four, twelve or sixteen heads.  Query-row tiles (one row, or five
    # with a partial last tile) sum dV and dK over tiles, so they, like the
    # tiled forward, are only within tolerance.  A second sweep over the
    # tape gives the same gradients.  Even heads take the shifted path, odd
    # heads do not.
    tq, tk, heads = 12, 10, 4
    arrays = [a.astype(dtype) for a in mixed_shift_operands(rng, dtype, tq, tk, heads)]
    g = rng.standard_normal((tq, 16)).astype(dtype)
    budget = budget_heads * tq * tk if budget_heads else budget_rows * tk
    monkeypatch.setattr(tc, "_ATTENTION_BLOCK_ELEMENTS", budget)
    leaves = [tc.Tensor(a, dtype=dtype) for a in arrays]
    tape = tc.Tape()
    tape.watch_all(zip("qkv", leaves))
    with tc.record_on(tape):
        out = tc.multi_head_attention(*leaves, heads)
    rec = tc.backward(tc.Tensor(g, dtype=dtype), tape, out)
    again = tc.backward(tc.Tensor(g, dtype=dtype), tape, out)
    for name in "qkv":
        assert again[name].data.tobytes() == rec[name].data.tobytes(), name
    refs = stored_e_attention(*arrays, heads, g)
    for name, got, ref in zip(("out", "q", "k", "v"),
                              [out.data, *(rec[n].data for n in "qkv")], refs):
        assert got.dtype == ref.dtype == np.dtype(dtype)
        if budget_heads:
            assert got.tobytes() == ref.tobytes(), name
        else:
            assert np.max(np.abs(got - ref)) < DTYPE_TOL[dtype], name


def softmax_attention_oracle(q, k, v, heads: int, g):
    """Output and q, k, v gradients (adjoint seed `g`) of multi-head softmax
    attention in float64 plain numpy, row-max shifted, with each result's
    magnitude: the same formula on absolute values, which bounds how far a
    rounding of P or of the products can move it."""
    q, k, v, g = (np.asarray(a, dtype=np.float64) for a in (q, k, v, g))
    d = q.shape[1] // heads
    scale = 1.0 / math.sqrt(d)
    out, dq, dk, dv = (np.zeros_like(a) for a in (q, q, k, v))
    mags = np.zeros(4)
    for j in range(heads):
        cols = slice(j * d, (j + 1) * d)
        qj, kj, vj, gj = q[:, cols], k[:, cols], v[:, cols], g[:, cols]
        s = qj @ kj.T * scale
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        oj = p @ vj
        ds = p * (gj @ vj.T - (gj * oj).sum(axis=1, keepdims=True))
        out[:, cols], dv[:, cols] = oj, p.T @ gj
        dq[:, cols], dk[:, cols] = ds @ kj * scale, ds.T @ qj * scale
        ds_mag = p * (np.abs(gj) @ np.abs(vj).T + (np.abs(gj) * np.abs(oj)).sum(axis=1)[:, None])
        mags = np.maximum(mags, [np.abs(vj).max(), (ds_mag @ np.abs(kj)).max() * scale,
                                 (ds_mag.T @ np.abs(qj)).max() * scale,
                                 (p.T @ np.abs(gj)).max()])
    return (out, dq, dk, dv), mags


# a head's scaled-score bound, as a multiple of its dtype's shift-free limit
SCORE_REACH = st.sampled_from([0.01, 0.3, 0.95, 1.05, 4.0]) | st.floats(0.0, 5.0)
ATTENTION_CASE = st.tuples(
    st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3, 8]),
    st.integers(1, 24), st.integers(1, 24), st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
).filter(lambda case: case[2] != case[3])
# None keeps the kernel's budget; (n, 0) sets one for blocks of n whole heads
# and (0, n) one for tiles of n query rows, partial last blocks included
ATTENTION_BUDGET = st.none() | st.tuples(st.integers(1, 8), st.just(0)) | st.tuples(
    st.just(0), st.integers(1, 24))


def attention_operands(case, reach, huge_v):
    """q, k, v and an adjoint seed for `case`, in its dtype; head j's q and
    k are scaled so that its Cauchy-Schwarz score bound is reach[j] times
    the dtype's shift-free limit ln(M) / 4.  `huge_v` puts |v| past the
    limit M^(3/4) / T_k."""
    heads, d, tq, tk, dtype, seed = case
    r = np.random.default_rng(seed)
    q, k = r.standard_normal((tq, heads * d)), r.standard_normal((tk, heads * d))
    v, g = r.standard_normal((tk, heads * d)), r.standard_normal((tq, heads * d))
    big = np.finfo(dtype).max
    for j in range(heads):
        cols = slice(j * d, (j + 1) * d)
        b = np.sqrt((q[:, cols] ** 2).sum(axis=1).max() * (k[:, cols] ** 2).sum(axis=1).max() / d)
        q[:, cols] *= np.sqrt(reach[j % len(reach)] * np.log(big) / 4 / b)
        k[:, cols] *= np.sqrt(reach[j % len(reach)] * np.log(big) / 4 / b)
    if huge_v:
        v *= 2 * big ** 0.75 / tk
    return [a.astype(dtype) for a in (q, k, v, g)]


def taped_attention(arrays, heads, budget):
    """multi_head_attention's output and q, k, v gradients, under a block
    budget of (heads per block, rows per tile) when `budget` is given."""
    q, k, v, g = arrays
    with pytest.MonkeyPatch.context() as mp:
        if budget:
            mp.setattr(tc, "_ATTENTION_BLOCK_ELEMENTS",
                       budget[0] * len(q) * len(k) or budget[1] * len(k))
        leaves = [tc.Tensor(a, dtype=a.dtype) for a in (q, k, v)]
        tape = tc.Tape()
        tape.watch_all(zip("qkv", leaves))
        with tc.record_on(tape):
            out = tc.multi_head_attention(*leaves, heads)
        rec = tc.backward(tc.Tensor(g, dtype=g.dtype), tape, out)
    return [out.data, *(rec[n].data for n in "qkv")]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ATTENTION_CASE, st.lists(SCORE_REACH, min_size=1, max_size=8), st.booleans(),
       ATTENTION_BUDGET)
def test_attention_matches_float64_softmax_oracle(case, reach, huge_v, budget):
    # The oracle shares no kernel op, so it bounds any reassociation of the
    # kernel's products: each result may differ by the dtype's tolerance
    # times its magnitude, times the score bound where exponents are large.
    heads, dtype = case[0], case[4]
    arrays = attention_operands(case, reach, huge_v)
    got = taped_attention(arrays, heads, budget)
    refs, mags = softmax_attention_oracle(*arrays[:3], heads, arrays[3])
    reach_max = max(reach[j % len(reach)] for j in range(heads))
    tol = DTYPE_TOL[dtype] * max(1.0, reach_max * np.log(np.finfo(dtype).max) / 4)
    for name, a, ref, mag in zip(("out", "q", "k", "v"), got, refs, mags):
        assert a.dtype == np.dtype(dtype), name
        assert np.all(np.isfinite(a)), name
        assert np.max(np.abs(a - ref)) <= tol * mag, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite input is the point
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ATTENTION_CASE.filter(lambda case: case[0] > 1), st.sampled_from("qkv"),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2**16), ATTENTION_BUDGET)
def test_attention_non_finite_head_leaves_other_heads_finite(case, which, bad, where, budget):
    heads, d = case[0], case[1]
    arrays = attention_operands(case, [0.3], huge_v=False)
    x = arrays["qkv".index(which)]
    row, j = where % len(x), where % heads
    x[row, j * d + where % d] = bad
    got = taped_attention(arrays, heads, budget)
    others = np.arange(heads * d) // d != j
    for name, a in zip(("out", "q", "k", "v"), got):
        assert np.all(np.isfinite(a[:, others])), name


class _SquareCounter:
    """numpy, with its ``square`` calls counted: the overflow guard's
    per-head test makes two per attention call, its whole-tensor pre-test
    none."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def square(self, *args, **kwargs):
        self.calls += 1
        return np.square(*args, **kwargs)


# a reach per seed, as a multiple of the limit it is measured against: two
# below it and two above
GUARD_REACH = [0.9, 0.99, 1.01, 1.1]
# the operand and the value that a seed makes non-finite; max(1, NaN) is
# NaN to the guard, where Python's max gives 1
GUARD_NON_FINITE = [("q", np.nan), ("k", np.inf), ("v", np.nan), ("q", -np.inf),
                    ("k", np.nan), ("v", np.inf)]


def guard_operands(kind: str, dtype, seed: int):
    """q, k, v and an adjoint seed in 4 heads of 4 channels (T_q 12, T_k 10),
    and whether the guard must run its per-head test:

    - head_reach: head j's score bound is a GUARD_REACH multiple of ln(M) / 4,
      so the per-head test decides, shifting the heads above 1;
    - pre_test_reach: 2 scale d max|q| max|k| is a GUARD_REACH multiple of
      ln(M) / 4, so every head is far inside its own bound and the pre-test
      decides alone below 1;
    - split_reach: large q in head 0 and large k in head 1 (a power-of-two
      rescale, which leaves every score and head bound exact) fail the
      pre-test while every head passes its own test;
    - non_finite: a NaN or an inf in one head of q, k or v, whose finite
      entries alone would pass the pre-test;
    - square_overflow: q so large in head 0 that its squared norms overflow
      while k is so small that its squared norms vanish, so that head's
      bound is inf * 0 = NaN although max|q| max|k| is tiny."""
    case = (4, 4, 12, 10, dtype, seed)
    reach = GUARD_REACH[seed % 4]
    if kind == "head_reach":
        return attention_operands(case, np.roll(GUARD_REACH, seed), False), True
    q, k, v, g = attention_operands(case, [0.05] if kind == "non_finite" else [0.5, 0.9, 0.3, 0.7],
                                    False)
    if kind == "pre_test_reach":
        pre_test = 2 * 4 * 0.5 * np.abs(q).max() * np.abs(k).max()  # 2 d scale, d = 4
        t = np.sqrt(reach * np.log(np.finfo(dtype).max) / 4 / pre_test)
        return [(q * t).astype(dtype), (k * t).astype(dtype), v, g], reach > 1
    if kind == "split_reach":
        q[:, :4] *= 64
        k[:, :4] /= 64
        q[:, 4:8] /= 64
        k[:, 4:8] *= 64
    elif kind == "non_finite":
        which, bad = GUARD_NON_FINITE[seed]
        (q, k, v)["qkv".index(which)][seed % 7, 4 * (seed % 4) + 1] = bad
    else:
        half = np.finfo(dtype).maxexp // 2  # max|q| 2^half: q^2 overflows
        q[:, :4] *= 2.0 ** half
        k *= 2.0 ** -(half + 30)  # k^2 is below the smallest subnormal
    return [q, k, v, g], True


@pytest.mark.parametrize("seed", range(len(GUARD_NON_FINITE)))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", [
    "head_reach", "pre_test_reach", "split_reach",
    pytest.param("non_finite", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    "square_overflow"])
def test_attention_guard_decides_as_the_per_head_reference(kind, dtype, seed, monkeypatch):
    # Whichever test decides, the whole-tensor pre-test or the per-head one,
    # every head must take the path that the stored-E reference's per-head
    # test gives it: output and gradients are its bytes (NaN where it has
    # NaN).  Blocks hold whole heads, in which the two agree to the bit.
    # Only non-finite input may warn: squared norms that overflow are valid
    # input, whose output is finite, though the reference's own test warns.
    arrays, per_head = guard_operands(kind, dtype, seed)
    assert all(a.dtype == np.dtype(dtype) for a in arrays)
    counter = _SquareCounter()
    monkeypatch.setattr(tc, "np", counter)
    if kind == "non_finite":  # the non-finite entry alone fails the pre-test
        tc.multi_head_attention(*(tc.Tensor(np.nan_to_num(a, posinf=0, neginf=0), dtype=dtype)
                                  for a in arrays[:3]), 4)
        assert counter.calls == 0
    got = taped_attention(arrays, 4, None)
    monkeypatch.undo()
    assert counter.calls == (2 if per_head else 0)
    with np.errstate(over="ignore", invalid="ignore"):
        refs = stored_e_attention(*arrays[:3], 4, arrays[3])
    for name, a, ref in zip(("out", "q", "k", "v"), got, refs):
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(a), nan), name
        assert a[~nan].tobytes() == ref[~nan].tobytes(), name


@pytest.mark.parametrize("dtype, big", [(np.float64, 1e200), (np.float32, 3e19),
                                        (np.float64, 1e308), (np.float32, 2e38)])
def test_attention_pre_test_does_not_overflow_on_finite_operands(dtype, big, monkeypatch):
    # max|q| max|k|, and at the last two sizes max|q| + max|k| too, is past
    # the dtype's largest value, yet every score is 0.  The pre-test fails on
    # max|q| <= limit - max|k| before it forms that product, so nothing warns;
    # the per-head test then sends both heads down the shifted path, which
    # averages the values exactly.
    q = tc.Tensor([[big, 0]], dtype=dtype)
    k = tc.Tensor([[0, big], [0, 1]], dtype=dtype)
    v = tc.Tensor([[1, 2], [3, 4]], dtype=dtype)
    counter = _SquareCounter()
    monkeypatch.setattr(tc, "np", counter)
    out = tc.multi_head_attention(q, k, v, 2)
    monkeypatch.undo()
    assert counter.calls == 2
    assert out.data.tolist() == [[2, 3]]


@pytest.mark.parametrize("big", [1e20, 1e30])
def test_f32_attention_past_the_score_range_matches_the_float64_oracle(big):
    # q and k of size `big` put f32 scores near big^2, past the largest f32,
    # before the shift can bound them.  Such a head is scored in float64:
    # output and gradients are finite, nothing warns, and each is within the
    # tolerance of the float64 oracle.  Keys 0 and 1 are equal and the
    # queries lean toward them, so most rows of P split evenly between them.
    r = np.random.default_rng(7)
    tq, tk, heads = 6, 5, 2
    k = r.standard_normal((tk, 8))
    k[0] *= 2
    k[1] = k[0]
    q = 0.5 * k[0] + 0.3 * r.standard_normal((tq, 8))
    v, g = r.standard_normal((tk, 8)), r.standard_normal((tq, 8))
    arrays = [a.astype(np.float32) for a in (q * big, k * big, v, g)]
    got = taped_attention(arrays, heads, None)
    refs, mags = softmax_attention_oracle(*arrays[:3], heads, arrays[3])
    for name, a, ref, mag in zip(("out", "q", "k", "v"), got, refs, mags):
        assert a.dtype == np.float32, name
        assert np.all(np.isfinite(a)), name
        assert np.max(np.abs(a - ref)) <= DTYPE_TOL[np.float32] * mag, name


@pytest.mark.parametrize("reach", [0.4, 0.6])
def test_f32_scores_whose_shift_would_overflow_are_scored_wide(reach):
    # Scores of +-reach M are finite f32, but their shifted difference
    # (-2 reach M) or that difference scaled by log2(e) is not: a bound past
    # M / 4 sends the head to float64, which attends to key 0 exactly.
    a = math.sqrt(reach * np.finfo(np.float32).max)
    q, k = tc.Tensor([[a]], dtype=np.float32), tc.Tensor([[a], [-a]], dtype=np.float32)
    out = tc.multi_head_attention(q, k, tc.Tensor([[1], [2]], dtype=np.float32), 1)
    assert out.data.tolist() == [[1]]


def test_taped_attention_retains_no_score_block(rng):
    # An earlier taped call kept all heads' scores, 8 x 1024^2 f32 (32 MiB);
    # a later one kept the last 256 KiB score block, and then [V | 1], the
    # scaled Q^T and the products, ~5.3 T C.  Now the tape holds the output
    # and a copy of the row sums beside the operands it holds anyway; the
    # adjoint rebuilds the rest.
    t, c, heads = 1024, 64, 8
    itemsize = np.dtype(np.float32).itemsize
    q, k, v = (tc.Tensor(rng.standard_normal((t, c)), dtype=np.float32) for _ in range(3))
    tape = tc.Tape()
    tracemalloc.start()
    try:
        with tc.record_on(tape):
            out = tc.multi_head_attention(q, k, v, heads)
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tc.backward(tc.full(out.shape, 1.0), tape, out)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = tc._ATTENTION_BLOCK_ELEMENTS * itemsize
    bookkeeping = 1 << 15  # the closures and the list of 128 blocks
    assert retained <= (t * c + heads * t) * itemsize + bookkeeping
    tokens = 12 * t * c * itemsize  # O(T C): rebuilt operands, row sums, gradients
    # the adjoint adds a recomputed E and a dS, each at most a block, and
    # its O(T C) gradients
    assert backward_peak <= retained + 2 * block + tokens


def test_attention_rejects_nonconforming_operands():
    q = tc.Tensor(np.zeros((3, 4)), dtype=np.float64)
    kv = tc.Tensor(np.zeros((5, 4)), dtype=np.float64)
    with pytest.raises(tc.DimensionError):
        tc.multi_head_attention(q, kv, tc.Tensor(np.zeros((4, 4)), dtype=np.float64), 2)
    with pytest.raises(tc.DimensionError):
        tc.multi_head_attention(q, tc.Tensor(np.zeros((5, 6)), dtype=np.float64), kv, 2)
    with pytest.raises(tc.ConfigurationError):
        tc.multi_head_attention(q, kv, kv, 3)
    with pytest.raises(tc.ConfigurationError):
        tc.multi_head_attention(q, kv, tc.Tensor(np.zeros((5, 4)), dtype=np.float32), 2)
    # one condition tests every rank and precision; the helpers that name the
    # error run on a mismatch, ranks first, as the operands come
    deep = tc.Tensor(np.zeros((5, 4, 1)), dtype=np.float64)
    narrow = tc.Tensor(np.zeros((5, 4)), dtype=np.float32)
    for args in ((deep, kv, kv), (q, deep, kv), (q, kv, deep),
                 (q, kv, tc.Tensor(np.zeros(5), dtype=np.float64)),
                 (q, narrow, tc.Tensor(np.zeros((5, 4, 1)), dtype=np.float32))):
        with pytest.raises(tc.DimensionError, match="rank 2"):
            tc.multi_head_attention(*args, 2)
    for args in ((tc.Tensor(q.data, dtype=np.float32), kv, kv), (q, narrow, kv), (q, kv, narrow)):
        with pytest.raises(tc.ConfigurationError, match="mixed precisions"):
            tc.multi_head_attention(*args, 2)


# --- elementwise / shape ops ---------------------------------------------------


def test_scalar_mul_gradient(rng):
    s = tc.scalar(1.7, dtype=np.float64)
    x = tc.Tensor(rng.standard_normal((3, 2)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(s, "s")
    tape.watch(x, "x")
    with tc.record_on(tape):
        out = tc.scalar_mul(s, x)
    rec = tc.backward(tc.full(out.shape, 1.0, dtype=np.float64), tape, out)
    npt.assert_allclose(rec["s"].data, [x.data.sum()], atol=1e-12)
    npt.assert_allclose(rec["x"].data, np.full((3, 2), 1.7), atol=1e-12)


def test_bias_add_broadcast_gradient(rng):
    x = tc.Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
    b = tc.Tensor(rng.standard_normal(3), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(b, "b")
    with tc.record_on(tape):
        out = tc.add(x, b)
    rec = tc.backward(tc.full(out.shape, 1.0, dtype=np.float64), tape, out)
    npt.assert_allclose(rec["b"].data, np.full(3, 4.0), atol=1e-12)


def test_col_slice_and_concat_round_trip(rng):
    x = tc.Tensor(rng.standard_normal((3, 6)), dtype=np.float64)
    parts = [tc.col_slice(x, j, j + 2) for j in (0, 2, 4)]
    back = tc.concat_cols(parts)
    npt.assert_array_equal(back.data, x.data)


def test_space_to_channel_layout():
    # 2x2x1 block must flatten row-major: (0,0), (0,1), (1,0), (1,1)
    x = tc.Tensor(np.arange(4.0).reshape(2, 2, 1), dtype=np.float64)
    out = tc.space_to_channel(x, 2)
    npt.assert_array_equal(out.data.reshape(-1), [0.0, 1.0, 2.0, 3.0])


def test_sigmoid_stable_at_extremes():
    out = tc.sigmoid(tc.Tensor([-800.0, 0.0, 800.0], dtype=np.float64))
    assert np.all(np.isfinite(out.data))
    npt.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)


def _masked_sigmoid(d):
    # the former kernel: scatter the two stable forms through a sign mask
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_byte_equal_to_the_masked_form(dtype, rng):
    tiny = np.finfo(dtype).smallest_subnormal
    edges = [800.0, -800.0, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny,
             -np.finfo(dtype).smallest_normal / 2, 1e-3, -1e-3]
    x = np.concatenate([np.array(edges, dtype=dtype),
                        np.linspace(-120, 120, 4001, dtype=dtype),
                        rng.standard_normal(1000).astype(dtype) * 30])
    got = tc.sigmoid(tc.Tensor(x, dtype=dtype)).data
    assert got.dtype == np.dtype(dtype)
    assert got.tobytes() == _masked_sigmoid(x).tobytes()


def test_tensor_is_immutable():
    t = tc.Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (1, 1, 1, 1, 1)])
def test_tensor_rejects_rank_above_three(shape):
    with pytest.raises(tc.DimensionError, match="rank 1-3"):
        tc.Tensor(np.zeros(shape))


def test_mixed_precision_rejected():
    a = tc.Tensor([[1.0]], dtype=np.float32)
    b = tc.Tensor([[1.0]], dtype=np.float64)
    with pytest.raises(tc.ConfigurationError):
        tc.add(a, b)


# --- rawtensor format ----------------------------------------------------------


def test_rawtensor_round_trip(tmp_path, rng):
    t = tc.Tensor(rng.standard_normal((3, 4, 2)), dtype=np.float32)
    path = tmp_path / "map.rawtensor"
    tc.write_rawtensor(path, t)
    back = tc.read_rawtensor(path)
    assert back.dtype == t.dtype
    npt.assert_array_equal(back.data, t.data)


def test_rawtensor_header_is_one_json_line(tmp_path):
    t = tc.Tensor(np.zeros((2, 2, 1)), dtype=np.float32)
    path = tmp_path / "map.rawtensor"
    tc.write_rawtensor(path, t)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
    assert header == {"v": 1, "dtype": "f32", "shape": [2, 2, 1]}


def test_rawtensor_truncated_payload_rejected(tmp_path):
    t = tc.Tensor(np.zeros((2, 2, 1)), dtype=np.float32)
    path = tmp_path / "map.rawtensor"
    tc.write_rawtensor(path, t)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(tc.ConfigurationError):
        tc.read_rawtensor(path)


def _rejected_with_peak(path, match):
    """read_rawtensor's ConfigurationError on `path`, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        with pytest.raises(tc.ConfigurationError, match=match):
            tc.read_rawtensor(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rawtensor_trailing_bytes_rejected_without_reading_them(tmp_path):
    # a [4, 4, 8] f32 header states 512 payload bytes; the file holds 8 MiB
    path = tmp_path / "map.rawtensor"
    tc.write_rawtensor(path, tc.Tensor(np.zeros((4, 4, 8)), dtype=np.float32))
    with open(path, "ab") as fh:
        fh.write(b"\0" * (8 << 20))
    peak = _rejected_with_peak(path, f"{path} is {(8 << 20) + 512} bytes, not 512")
    assert peak < 64 << 10


@pytest.mark.parametrize("kind", sorted(RAWTENSOR_SIZE_PROBES))
def test_rawtensor_oversized_stated_payload_rejected_without_allocating_it(tmp_path, kind):
    path = write_rawtensor_probe(tmp_path / "map.rawtensor", kind)
    peak = _rejected_with_peak(path, f"{path} is 8 bytes, not")
    assert peak < 64 << 10


def test_rawtensor_overlong_header_line_rejected(tmp_path):
    # valid JSON for a valid record, padded past the header limit
    header = b'{"v": 1, "dtype": "f32", "shape": [4, 4, 8]' + b" " * (8 << 20) + b"}\n"
    path = tmp_path / "map.rawtensor"
    path.write_bytes(header + b"\0" * 512)
    peak = _rejected_with_peak(path, f"header in {path} is longer than 4096 bytes")
    assert peak < 64 << 10


@pytest.mark.parametrize("kind", sorted(RAWTENSOR_PROBES))
def test_rawtensor_malformed_header_rejected(tmp_path, kind):
    with pytest.raises(tc.ConfigurationError):
        tc.read_rawtensor(write_rawtensor_probe(tmp_path / "map.rawtensor", kind))


# --- per-thread op state -------------------------------------------------------


def _join(thread):
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_a_tape_pushed_in_a_fresh_thread_records_there():
    x = tc.Tensor(np.ones((2, 2)), dtype=np.float64)
    seen = {}

    def worker():
        seen["recording"] = tc._recording()
        tape, counter = tc.Tape(), tc.MultiplyCounter()
        with tc.record_on(tape), tc.count_multiplies(counter):
            tc.matmul(x, x)
        seen["steps"], seen["counts"] = tape.num_steps, dict(counter.counts)

    main_tape, main_counter = tc.Tape(), tc.MultiplyCounter()
    with tc.record_on(main_tape), tc.count_multiplies(main_counter), tc.op_stage("proj"):
        thread = threading.Thread(target=worker)
        thread.start()
        _join(thread)
    # the worker saw none of the main thread's tape, counter or stage
    assert seen == {"recording": False, "steps": 1, "counts": {"other": 8}}
    assert main_tape.num_steps == 0 and main_counter.counts == {}


def test_a_stage_open_in_another_thread_does_not_label_this_one():
    x = tc.Tensor(np.ones((2, 2)), dtype=np.float64)
    entered, release = threading.Event(), threading.Event()

    def worker():
        with tc.op_stage("ffn"):
            entered.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(timeout=30)
        counter = tc.MultiplyCounter()
        with tc.count_multiplies(counter):
            tc.matmul(x, x)
    finally:
        release.set()
        _join(thread)
    assert counter.counts == {"other": 8}


# --- op_stage --------------------------------------------------------------------


def _stage_counts(run):
    counter = tc.MultiplyCounter()
    with tc.count_multiplies(counter):
        run()
    return counter.counts


def test_op_stage_nests_and_the_innermost_label_wins():
    x = tc.Tensor(np.ones((2, 2)), dtype=np.float64)

    def run():
        with tc.op_stage("proj"):
            tc.matmul(x, x)
            with tc.op_stage("ffn"):
                tc.matmul(x, x)
            tc.matmul(x, x)
        tc.matmul(x, x)

    assert _stage_counts(run) == {"proj": 16, "ffn": 8, "other": 8}


def test_op_stage_unwinds_on_an_exception():
    x = tc.Tensor(np.ones((2, 2)), dtype=np.float64)

    def run():
        with pytest.raises(tc.DimensionError):
            with tc.op_stage("proj"), tc.op_stage("ffn"):
                tc.matmul(x, tc.Tensor(np.ones((3, 2)), dtype=np.float64))
        tc.matmul(x, x)

    assert _stage_counts(run) == {"other": 8}


def test_op_stage_works_wrapped_in_a_generator_context_manager():
    # the form a tracer uses to follow the active stage from outside
    x = tc.Tensor(np.ones((2, 2)), dtype=np.float64)
    labels = []

    def staged(fn):
        @contextmanager
        def op_stage(name):
            labels.append(name)
            try:
                with fn(name):
                    yield
            finally:
                labels.pop()

        return op_stage

    wrapped = staged(tc.op_stage)

    def run():
        with wrapped("proj"):
            with wrapped("ffn"):
                assert labels == ["proj", "ffn"]
                tc.matmul(x, x)
            tc.matmul(x, x)
        with pytest.raises(KeyError):
            with wrapped("nin"):
                raise KeyError
        tc.matmul(x, x)

    assert _stage_counts(run) == {"ffn": 8, "proj": 8, "other": 8}
    assert labels == []
