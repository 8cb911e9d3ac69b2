import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from crossfuse import dmff, weights_io
from crossfuse.dmff import DmffConfig
from conftest import ICAF_PROBES, RAWTENSOR_PROBES, write_icaf, write_icaf_probe


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
    assert list(back.tensors) == list(wts.tensors)
    assert "cfe.w_q" in back.tensors and "cfe_r.w_q" not in back.tensors


# The first 16 hex digits of sha256 of each saved file, seeded init at 4x4x8,
# in (pool f32, pool f64, conv f32, conv f64) order; pinned while the weights
# were still held in per-stage containers.
ICAF_DIGESTS = {
    "a": ("b135e4c15ef525af", "229783d6c97ab2e6", "d5c4012388e22fc4", "7c9e4501d137260e"),
    "b": ("1301db8b1a42787d", "978cf555130aa953", "50e928d1b67ffbe3", "a448271b8e732621"),
    "c": ("2341f5074fc4937c", "9512e23e9d8d0833", "b3081b82c1301584", "098e314f4e628265"),
    "d": ("0235b5f6140167ba", "ead145a601d749d5", "f96653997b5fa1b8", "d8e0406b3737f1fc"),
    "e": ("6b7bbc5e5d494a41", "53cacf21c7e21a61", "4dad7b52ae4e8aee", "0d1f6fee9baae351"),
    "f_rgb": ("2d9ae748ad4a487c", "2d9ae748ad4a487c", "74cadf47a9395d25", "74cadf47a9395d25"),
    "f_thermal": ("8172ac0c6dd90fb1", "8172ac0c6dd90fb1", "3d7888e10bf6bad7", "3d7888e10bf6bad7"),
}


@pytest.mark.parametrize("mode", dmff.MODES)
def test_saved_bytes_are_pinned(tmp_path, mode):
    digests = iter(ICAF_DIGESTS[mode])
    for variant in ("pool", "conv"):
        for dtype in (np.float32, np.float64):
            cfg = DmffConfig(mode=mode, shrink_variant=variant, heads=2, ffn_hidden=16)
            wts = dmff.init_dmff_weights(cfg, 4, 4, 8, np.random.default_rng(3), dtype=dtype)
            path = tmp_path / f"{variant}-{np.dtype(dtype).name}.icaf"
            weights_io.save_weights(wts, path)
            got = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            assert got == next(digests), (variant, np.dtype(dtype).name)


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


def _traced_peak(fn):
    """The exception `fn` raises and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        with pytest.raises(weights_io.WeightsFormatError) as info:
            fn()
        return info.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trailing_bytes_are_rejected_before_the_payload_is_read(tmp_path, rng):
    cfg = DmffConfig(mode="d", heads=2, ffn_hidden=16)
    path = tmp_path / "w.icaf"
    weights_io.save_weights(dmff.init_dmff_weights(cfg, 8, 8, 16, rng), path)
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size + (64 << 20))  # 64 MiB of zeros, sparse
    exc, peak = _traced_peak(lambda: weights_io.load_weights(path))
    assert isinstance(exc, weights_io.ManifestError)
    assert peak < 2 << 20


def test_manifest_length_past_the_file_is_not_allocated(tmp_path, rng):
    path = tmp_path / "w.icaf"
    weights_io.save_weights(build_weights(rng), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<I", 2**32 - 1) + blob[12:])
    exc, peak = _traced_peak(lambda: weights_io.load_weights(path))
    assert isinstance(exc, weights_io.TruncatedPayloadError)
    assert peak < 2 << 20


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
    assert back.tensors["cfe_r.w_q"].shape == (8, 8)


def test_meta_without_the_later_config_fields_loads(tmp_path):
    # files written before input_duplication and sequential_update existed
    wts = weights_io.load_weights(write_icaf_probe(tmp_path / "w.icaf", None))
    meta = {k: v for k, v in dataclasses.asdict(wts.cfg).items()
            if k not in ("input_duplication", "sequential_update")}
    entries = [(n, t.data) for n, t in wts.named_tensors()]
    back = weights_io.load_weights(
        write_icaf(tmp_path / "old.icaf", dict(meta, height=4, width=4, channels=8), entries))
    assert back.cfg == wts.cfg


@pytest.mark.parametrize("kind", ICAF_PROBES)
def test_malformed_tensor_table_is_manifest_error(tmp_path, kind):
    with pytest.raises(weights_io.ManifestError):
        weights_io.load_weights(write_icaf_probe(tmp_path / "w.icaf", kind))


@pytest.mark.parametrize("kind", sorted(k for k in RAWTENSOR_PROBES if not k.endswith("_version")))
def test_rawtensor_header_probes_in_the_tensor_table_are_manifest_errors(tmp_path, kind):
    # both readers hold a tensor record to one rule
    import json

    path = write_icaf_probe(tmp_path / "w.icaf", None)
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<I", blob[8:12])
    manifest = json.loads(blob[12 : 12 + mlen])
    header = json.loads(RAWTENSOR_PROBES[kind][0])
    entry = manifest["tensors"][0]
    manifest["tensors"][0] = (header if kind == "not_an_object" else
                              dict(entry, dtype=header["dtype"], shape=header["shape"]))
    new_manifest = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(
        blob[:8] + struct.pack("<I", len(new_manifest)) + new_manifest + blob[12 + mlen :]
    )
    with pytest.raises(weights_io.ManifestError):
        weights_io.load_weights(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loaded_tensors_are_aligned(tmp_path, rng, dtype):
    # unaligned weight buffers take numpy's slow paths in every matmul
    cfg = DmffConfig(mode="d", heads=2, ffn_hidden=16)
    path = tmp_path / "w.icaf"
    weights_io.save_weights(dmff.init_dmff_weights(cfg, 4, 4, 8, rng, dtype=dtype), path)
    for name, t in weights_io.load_weights(path).named_tensors():
        assert t.data.flags.aligned, name
