import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import tensor_core as tc
from crossfuse.synth import SyntheticPairSpec, gen_synthetic_pair


def test_zero_complementarity_makes_branches_identical():
    spec = SyntheticPairSpec(h=8, w=8, c=4, blob_count=6, seed=3, complementarity=0.0)
    f_r, f_t, target = gen_synthetic_pair(spec, dtype=np.float64)
    npt.assert_array_equal(f_r.data, f_t.data)
    npt.assert_array_equal(target.data, f_r.data)


def test_zero_blobs_all_maps_zero():
    spec = SyntheticPairSpec(blob_count=0, seed=5)
    for t in gen_synthetic_pair(spec):
        npt.assert_array_equal(t.data, 0.0)


def test_fixed_seed_reproduces_bit_identical_triples():
    spec = SyntheticPairSpec(seed=42)
    first = gen_synthetic_pair(spec)
    second = gen_synthetic_pair(spec)
    for a, b in zip(first, second):
        npt.assert_array_equal(a.data, b.data)


def test_different_seeds_differ():
    a = gen_synthetic_pair(SyntheticPairSpec(seed=1), dtype=np.float64)
    b = gen_synthetic_pair(SyntheticPairSpec(seed=2), dtype=np.float64)
    assert np.max(np.abs(a[0].data - b[0].data)) > 0


def test_target_is_elementwise_max():
    spec = SyntheticPairSpec(seed=9, complementarity=1.0)
    f_r, f_t, target = gen_synthetic_pair(spec, dtype=np.float64)
    npt.assert_array_equal(target.data, np.maximum(f_r.data, f_t.data))
    # fully complementary: neither branch alone reproduces the target
    assert np.max(np.abs(f_r.data - target.data)) > 0
    assert np.max(np.abs(f_t.data - target.data)) > 0


def test_invalid_spec_rejected():
    with pytest.raises(tc.ConfigurationError):
        SyntheticPairSpec(complementarity=1.5)
    with pytest.raises(tc.ConfigurationError):
        SyntheticPairSpec(blob_count=-1)
    with pytest.raises(tc.ConfigurationError):
        SyntheticPairSpec(h=0)


def test_scene_past_the_element_bound_rejected():
    from crossfuse.synth import MAX_MAP_ELEMENTS

    assert MAX_MAP_ELEMENTS == 2**22
    SyntheticPairSpec(h=2**11, w=2**11, c=1)  # exactly at the bound
    with pytest.raises(tc.ConfigurationError, match="elements"):
        SyntheticPairSpec(h=2**11, w=2**11, c=2)
    with pytest.raises(tc.ConfigurationError):
        SyntheticPairSpec(h=10_000_000, w=10_000_000)
