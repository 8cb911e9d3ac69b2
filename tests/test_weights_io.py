import struct

import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import dmff, weights_io
from crossfuse.dmff import DmffConfig
from conftest import ICAF_PROBES, write_icaf_probe


def build_weights(rng, mode="d"):
    cfg = DmffConfig(mode=mode, heads=2, ffn_hidden=16)
    return dmff.init_dmff_weights(cfg, 4, 4, 8, rng, dtype=np.float32)


def test_round_trip_is_bit_exact(tmp_path, rng):
    wts = build_weights(rng)
    path = tmp_path / "w.icaf"
    weights_io.save_weights(wts, path)
    back = weights_io.load_weights(path)
    before = dict(wts.named_tensors())
    after = dict(back.named_tensors())
    assert sorted(before) == sorted(after)
    for name in before:
        assert before[name].dtype == after[name].dtype
        npt.assert_array_equal(before[name].data, after[name].data)
    assert back.cfg == wts.cfg
    assert (back.height, back.width, back.channels) == (4, 4, 8)


def test_round_trip_preserves_sharing(tmp_path, rng):
    wts = build_weights(rng, mode="c")
    path = tmp_path / "w.icaf"
    weights_io.save_weights(wts, path)
    back = weights_io.load_weights(path)
    assert back.icfe.shared
    assert back.icfe.cfe_r is back.icfe.cfe_t


def test_save_is_deterministic(tmp_path, rng):
    wts = build_weights(rng)
    p1, p2 = tmp_path / "a.icaf", tmp_path / "b.icaf"
    weights_io.save_weights(wts, p1)
    weights_io.save_weights(wts, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path, rng):
    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(weights_io.BadMagicError):
        weights_io.load_weights(path)


def test_version_mismatch(tmp_path, rng):
    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(weights_io.VersionMismatchError):
        weights_io.load_weights(path)


def test_truncated_payload(tmp_path, rng):
    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-17])
    with pytest.raises(weights_io.TruncatedPayloadError):
        weights_io.load_weights(path)


def test_truncated_header(tmp_path, rng):
    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    path.write_bytes(path.read_bytes()[:6])
    with pytest.raises(weights_io.TruncatedPayloadError):
        weights_io.load_weights(path)


def test_payload_longer_than_manifest_is_manifest_error(tmp_path, rng):
    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(weights_io.ManifestError):
        weights_io.load_weights(path)


def test_manifest_with_missing_tensor_is_manifest_error(tmp_path, rng):
    import json

    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<I", blob[8:12])
    manifest = json.loads(blob[12 : 12 + mlen])
    # drop one required tensor from manifest and payload
    dropped = manifest["tensors"].pop(0)
    nbytes = int(np.prod(dropped["shape"])) * (4 if dropped["dtype"] == "f32" else 8)
    new_manifest = json.dumps(manifest, sort_keys=True).encode()
    payload = blob[12 + mlen :]
    path.write_bytes(
        blob[:8] + struct.pack("<I", len(new_manifest)) + new_manifest + payload[nbytes:]
    )
    with pytest.raises(weights_io.ManifestError):
        weights_io.load_weights(path)


@pytest.mark.parametrize("key", ["heads", "ffn_hidden"])
def test_nonpositive_meta_width_is_manifest_error(tmp_path, rng, key):
    import json

    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<I", blob[8:12])
    manifest = json.loads(blob[12 : 12 + mlen])
    manifest["meta"][key] = 0
    new_manifest = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(
        blob[:8] + struct.pack("<I", len(new_manifest)) + new_manifest + blob[12 + mlen :]
    )
    with pytest.raises(weights_io.ManifestError, match=key):
        weights_io.load_weights(path)


def test_corrupt_json_is_manifest_error(tmp_path, rng):
    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    blob = bytearray(path.read_bytes())
    blob[12] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(weights_io.ManifestError):
        weights_io.load_weights(path)


def test_loaded_weights_run_the_pipeline(tmp_path, rng):
    wts = build_weights(rng)
    path = tmp_path / "w.icaf"
    weights_io.save_weights(wts, path)
    back = weights_io.load_weights(path)
    from crossfuse import tensor_core as tc

    f_r = tc.Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float32)
    f_t = tc.Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float32)
    out1 = dmff.dmff_fuse(f_r, f_t, wts.cfg, wts)
    out2 = dmff.dmff_fuse(f_r, f_t, back.cfg, back)
    npt.assert_array_equal(out1.primary.data, out2.primary.data)


def test_hand_written_file_without_defect_loads(tmp_path):
    back = weights_io.load_weights(write_icaf_probe(tmp_path / "w.icaf", None))
    assert back.icfe.cfe_r.w_q.shape == (8, 8)


@pytest.mark.parametrize("kind", ICAF_PROBES)
def test_malformed_tensor_table_is_manifest_error(tmp_path, kind):
    with pytest.raises(weights_io.ManifestError):
        weights_io.load_weights(write_icaf_probe(tmp_path / "w.icaf", kind))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loaded_tensors_are_aligned(tmp_path, rng, dtype):
    # unaligned weight buffers take numpy's slow paths in every matmul
    cfg = DmffConfig(mode="d", heads=2, ffn_hidden=16)
    path = tmp_path / "w.icaf"
    weights_io.save_weights(dmff.init_dmff_weights(cfg, 4, 4, 8, rng, dtype=dtype), path)
    for name, t in weights_io.load_weights(path).named_tensors():
        assert t.data.flags.aligned, name
