import math

import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import cfe
from crossfuse import tensor_core as tc
from conftest import attention_probs, fd_gradient, rel_err


def seq(arr):
    return tc.Tensor(arr, dtype=np.float64)


def attention_oracle(q, kv, wq, wk, wv, heads):
    """Naive reference: materializes full per-head score matrices with
    flat loops and direct softmax, all in float64."""
    tq, c = q.shape
    tkv = kv.shape[0]
    d = c // heads
    big_q = q @ wq
    big_k = kv @ wk
    big_v = kv @ wv
    out = np.zeros((tq, c))
    for j in range(heads):
        qj = big_q[:, j * d : (j + 1) * d]
        kj = big_k[:, j * d : (j + 1) * d]
        vj = big_v[:, j * d : (j + 1) * d]
        scores = np.zeros((tq, tkv))
        for a in range(tq):
            for b in range(tkv):
                scores[a, b] = float(qj[a] @ kj[b]) / math.sqrt(d)
        for a in range(tq):
            e = np.exp(scores[a] - scores[a].max())
            probs = e / e.sum()
            acc = np.zeros(d)
            for b in range(tkv):
                acc += probs[b] * vj[b]
            out[a, j * d : (j + 1) * d] = acc
    return out


def make_params(c, h, rng, coefficients=cfe.COEFFICIENTS):
    """One set drawn from `rng`, its (alpha, beta, gamma, delta) then set to
    `coefficients`; filled leaves draw nothing, so the rest keep their bytes."""
    p = tc.init_tensors(cfe.cfe_spec(c, h), rng, np.float64)
    p.update(zip(("alpha", "beta", "gamma", "delta"),
                 (tc.scalar(x, np.float64) for x in coefficients)))
    return p


def test_single_token_single_channel_attention_returns_value():
    ones = tc.Tensor([[1.0]], dtype=np.float64)
    p = dict(
        w_q=ones, w_k=ones, w_v=ones, w_o=ones,
        ffn_w1=tc.Tensor([[1.0]], dtype=np.float64),
        ffn_b1=tc.zeros((1,), dtype=np.float64),
        ffn_w2=tc.Tensor([[1.0]], dtype=np.float64),
        ffn_b2=tc.zeros((1,), dtype=np.float64),
        alpha=tc.scalar(1.0, np.float64), beta=tc.scalar(1.0, np.float64),
        gamma=tc.scalar(1.0, np.float64), delta=tc.scalar(1.0, np.float64),
    )
    out = cfe.cross_attention(seq([[3.0]]), seq([[4.0]]), p, 1)
    # one key: softmax of a lone score is 1, so output is exactly v
    npt.assert_array_equal(out.data, [[4.0]])


def test_identical_kv_rows_make_attention_constant(rng):
    p = make_params(4, 8, rng)
    row = rng.standard_normal(4)
    kv = seq(np.tile(row, (5, 1)))
    q = seq(rng.standard_normal((3, 4)))
    out = cfe.cross_attention(q, kv, p, 2)
    expected = row @ p["w_v"].data
    npt.assert_allclose(out.data, np.tile(expected, (3, 1)), atol=1e-12)


def test_cross_attention_against_naive_oracle(rng):
    p = make_params(4, 8, rng)
    q = rng.standard_normal((3, 4))
    kv = rng.standard_normal((3, 4))
    got = cfe.cross_attention(seq(q), seq(kv), p, 2)
    want = attention_oracle(q, kv, p["w_q"].data, p["w_k"].data, p["w_v"].data, heads=2)
    assert np.max(np.abs(got.data - want)) < 1e-10


def test_cross_attention_different_token_counts(rng):
    p = make_params(4, 8, rng)
    q = rng.standard_normal((5, 4))
    kv = rng.standard_normal((2, 4))
    got = cfe.cross_attention(seq(q), seq(kv), p, 2)
    assert got.shape == (5, 4)
    want = attention_oracle(q, kv, p["w_q"].data, p["w_k"].data, p["w_v"].data, heads=2)
    assert np.max(np.abs(got.data - want)) < 1e-10


def test_cross_attention_multiply_counts_are_exact(rng):
    heads, tq, tk, c = 2, 5, 3, 4
    p = make_params(c, 8, rng)
    with tc.count_multiplies() as counter:
        cfe.cross_attention(seq(rng.standard_normal((tq, c))),
                            seq(rng.standard_normal((tk, c))), p, heads)
    d_k = c // heads
    assert counter.counts == {
        "proj": tq * c * c + 2 * tk * c * c,
        "attention_qk": heads * tq * tk * d_k,
        "attention_av": heads * tq * tk * d_k,
    }


def test_cross_attention_records_four_tape_steps(rng):
    # three projections and one attention step, whatever the head count
    for heads in (1, 2, 4):
        p = make_params(4, 8, rng)
        tape = tc.Tape()
        with tc.record_on(tape):
            cfe.cross_attention(seq(rng.standard_normal((5, 4))),
                                seq(rng.standard_normal((3, 4))), p, heads)
        assert tape.num_steps == 4, heads


def test_channel_mismatch_rejected(rng):
    p = make_params(4, 8, rng)
    with pytest.raises(tc.DimensionError):
        cfe.cross_attention(seq(rng.standard_normal((3, 4))),
                            seq(rng.standard_normal((3, 6))), p, 2)


def test_heads_must_divide_channels(rng):
    p = make_params(4, 8, rng)
    with pytest.raises(tc.ConfigurationError):
        cfe.cross_attention(seq(rng.standard_normal((3, 4))),
                            seq(rng.standard_normal((3, 4))), p, 3)


def test_attention_rows_sum_to_one(rng):
    p = make_params(8, 16, rng)
    q = seq(rng.standard_normal((6, 8)) * 3)
    kv = seq(rng.standard_normal((6, 8)) * 3)
    weights = attention_probs(tc.matmul(q, p["w_q"]), tc.matmul(kv, p["w_k"]), 4)
    assert len(weights) == 4
    for probs in weights:
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_kv_permutation_leaves_attention_unchanged(rng):
    p = make_params(4, 8, rng)
    q = seq(rng.standard_normal((5, 4)))
    kv = rng.standard_normal((6, 4))
    perm = rng.permutation(6)
    out = cfe.cross_attention(q, seq(kv), p, 2)
    out_perm = cfe.cross_attention(q, seq(kv[perm]), p, 2)
    assert np.max(np.abs(out.data - out_perm.data)) < 1e-9


def test_q_permutation_permutes_attention_rows(rng):
    p = make_params(4, 8, rng)
    q = rng.standard_normal((5, 4))
    kv = seq(rng.standard_normal((6, 4)))
    perm = rng.permutation(5)
    out = cfe.cross_attention(seq(q), kv, p, 2)
    out_perm = cfe.cross_attention(seq(q[perm]), kv, p, 2)
    assert np.max(np.abs(out.data[perm] - out_perm.data)) < 1e-12


def test_zero_aux_uniform_mixture(rng):
    # zero queries give all-zero scores, so each row is the uniform average
    # of the v-projected target tokens
    p = make_params(4, 8, rng)
    kv = rng.standard_normal((5, 4))
    q = seq(np.zeros((5, 4)))
    out = cfe.cross_attention(q, seq(kv), p, 2)
    expected = np.tile((kv @ p["w_v"].data).mean(axis=0), (5, 1))
    npt.assert_allclose(out.data, expected, atol=1e-12)


# --- full block ----------------------------------------------------------------


def test_identity_bypass_is_bit_exact(rng):
    p = make_params(4, 8, rng, coefficients=(0.0, 1.0, 1.0, 0.0))
    target = seq(rng.standard_normal((6, 4)))
    aux = seq(rng.standard_normal((6, 4)))
    out = cfe.cfe_forward(target, aux, p, 2)
    npt.assert_array_equal(out.data, target.data)


def test_attention_disabled_leaves_target_plus_ffn(rng):
    p = make_params(4, 8, rng, coefficients=(0.0, 1.0, 1.0, 1.0))
    target = seq(rng.standard_normal((6, 4)))
    out_a = cfe.cfe_forward(target, seq(rng.standard_normal((6, 4))), p, 2)
    out_b = cfe.cfe_forward(target, seq(rng.standard_normal((6, 4))), p, 2)
    npt.assert_array_equal(out_a.data, out_b.data)
    expected = target.data + cfe.ffn(target, p).data
    npt.assert_allclose(out_a.data, expected, atol=1e-12)


def test_scalar_closed_form():
    # one token, one channel, every weight 1, hidden width 4, coefficients 1:
    # attention returns the target value a; t' = a + a = 2a;
    # ffn(2a) = 4 * 2a for positive a; out = 2a + 8a = 10a
    ones = tc.Tensor([[1.0]], dtype=np.float64)
    p = dict(
        w_q=ones, w_k=ones, w_v=ones, w_o=ones,
        ffn_w1=tc.Tensor(np.ones((1, 4)), dtype=np.float64),
        ffn_b1=tc.zeros((4,), dtype=np.float64),
        ffn_w2=tc.Tensor(np.ones((4, 1)), dtype=np.float64),
        ffn_b2=tc.zeros((1,), dtype=np.float64),
        alpha=tc.scalar(1.0, np.float64), beta=tc.scalar(1.0, np.float64),
        gamma=tc.scalar(1.0, np.float64), delta=tc.scalar(1.0, np.float64),
    )
    out = cfe.cfe_forward(seq([[2.0]]), seq([[0.7]]), p, 1)
    assert abs(out.data[0, 0] - 20.0) < 1e-9


def test_output_shape_follows_target(rng):
    p = make_params(4, 8, rng)
    target = seq(rng.standard_normal((6, 4)))
    aux = seq(rng.standard_normal((6, 4)))
    out = cfe.cfe_forward(target, aux, p, 2)
    assert out.shape == target.shape


def test_attention_kv_permutation_leaves_forward_unchanged(rng):
    # the target enters the attention only as keys and values: the forward
    # rebuilt around attention over its permuted rows is unchanged
    p = make_params(4, 8, rng)
    target = seq(rng.standard_normal((6, 4)))
    aux = seq(rng.standard_normal((6, 4)))
    perm = rng.permutation(6)
    base = cfe.cfe_forward(target, aux, p, 2)
    z = cfe.cross_attention(aux, seq(target.data[perm]), p, 2)
    t_prime = tc.scaled_sum(p["alpha"], tc.matmul(z, p["w_o"]), p["beta"], target)
    out = tc.scaled_sum(p["gamma"], t_prime, p["delta"], cfe.ffn(t_prime, p))
    assert np.max(np.abs(base.data - out.data)) < 1e-9


def test_every_parameter_gets_fd_validated_gradient(rng):
    p = make_params(4, 8, rng)
    target_arr = rng.standard_normal((3, 4))
    aux_arr = rng.standard_normal((3, 4))
    probe = rng.standard_normal((3, 4))

    def loss_value(params):
        out = cfe.cfe_forward(seq(target_arr), seq(aux_arr), params, 2)
        return float((out.data * probe).sum())

    tape = tc.Tape()
    tape.watch_all(p.items())
    with tc.record_on(tape):
        out = cfe.cfe_forward(seq(target_arr), seq(aux_arr), p, 2)
    rec = tc.backward(tc.Tensor(probe, dtype=np.float64), tape, out)
    for name, tensor in p.items():
        assert name in rec, name
        fd = fd_gradient(
            lambda t, name=name: loss_value({**p, name: t}),
            tensor,
        )
        assert rel_err(rec[name].data, fd) < 1e-4, name
