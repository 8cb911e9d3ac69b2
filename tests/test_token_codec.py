import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import tensor_core as tc
from crossfuse import token_codec as codec


def make_table(tokens, c, rng):
    return tc.init_tensors(codec.pe_spec(tokens, c), rng, np.float64)["table"]


def test_single_pixel_map_tokenizes_to_its_channel_vector(rng):
    v = rng.standard_normal(5)
    seq = codec.tokenize(tc.Tensor(v.reshape(1, 1, 5), dtype=np.float64))
    npt.assert_array_equal(seq.data, v[None, :])


def test_tokenize_row_major_order():
    m = tc.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1), dtype=np.float64)
    seq = codec.tokenize(m)
    npt.assert_array_equal(seq.data.reshape(-1), [1.0, 2.0, 3.0, 4.0])


def test_zero_map_plus_embedding_equals_table(rng):
    pe = make_table(6, 3, rng)
    m = tc.zeros((2, 3, 3), dtype=np.float64)
    seq = codec.tokenize(m, pe)
    npt.assert_array_equal(seq.data, pe.data)


def test_embedding_shape_mismatch_rejected(rng):
    pe = make_table(5, 3, rng)
    m = tc.zeros((2, 3, 3), dtype=np.float64)
    with pytest.raises(tc.DimensionError):
        codec.tokenize(m, pe)


def test_round_trip_is_bit_exact(rng):
    m = tc.Tensor(rng.standard_normal((4, 6, 8)), dtype=np.float32)
    back = codec.detokenize(codec.tokenize(m), 4, 6)
    npt.assert_array_equal(back.data, m.data)


def test_single_token_detokenizes_to_1x1(rng):
    seq = tc.Tensor(rng.standard_normal((1, 7)), dtype=np.float64)
    assert codec.detokenize(seq, 1, 1).shape == (1, 1, 7)


def test_round_trip_under_token_permutation_oracle(rng):
    # permute tokens, invert the permutation, detokenize: must reproduce the
    # map exactly per the explicit row-major index map
    m = rng.standard_normal((4, 6, 8))
    seq = codec.tokenize(tc.Tensor(m, dtype=np.float64))
    perm = rng.permutation(24)
    inv = np.argsort(perm)
    shuffled = seq.data[perm]
    restored = tc.Tensor(shuffled[inv], dtype=np.float64)
    back = codec.detokenize(restored, 4, 6)
    # independent index-map oracle: token i holds pixel (i // 6, i % 6)
    for i in range(24):
        npt.assert_array_equal(back.data[i // 6, i % 6], m[i // 6, i % 6])
    npt.assert_array_equal(back.data, m)


def test_inconsistent_origin_extents_rejected(rng):
    with pytest.raises(tc.DimensionError):
        codec.detokenize(tc.Tensor(rng.standard_normal((6, 2)), dtype=np.float64), 2, 2)


def test_add_then_subtract_embedding_restores_tokens(rng):
    m = tc.Tensor(rng.standard_normal((3, 4, 5)), dtype=np.float64)
    pe = make_table(12, 5, rng)
    with_pe = codec.tokenize(m, pe)
    npt.assert_array_equal(with_pe.data - pe.data, codec.tokenize(m).data)


def test_embedding_gradient_equals_token_gradient(rng):
    m = tc.Tensor(rng.standard_normal((3, 4, 5)), dtype=np.float64)
    pe = make_table(12, 5, rng)
    probe = tc.Tensor(rng.standard_normal((12, 5)), dtype=np.float64)
    tape = tc.Tape()
    tape.watch(pe, "pe")
    tape.watch(m, "map")
    with tc.record_on(tape):
        seq = codec.tokenize(m, pe)
    rec = tc.backward(probe, tape, seq)  # the adjoint of sum(seq * probe)
    # additive coupling: dL/dPE == dL/dtokens == dL/dmap reshaped
    npt.assert_array_equal(rec["pe"].data, rec["map"].data.reshape(12, 5))
