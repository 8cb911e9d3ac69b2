"""Fuzz both file readers: every input either loads into valid objects or
raises the reader's own error kind (WeightsFormatError subclasses for ICAF,
ConfigurationError for rawtensor), never anything else."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossfuse import dmff, tensor_core as tc, weights_io

# derandomized, so the suite runs the same examples every time; the same
# file path is rewritten for every example, hence the fixture health check
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SCALARS = (st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=6)
           | st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**30, -1, 0]))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=4),
    max_leaves=8,
)
# what a meta value or a tensor-entry field is replaced with
FIELD = SCALARS | st.lists(SCALARS, max_size=4) | JSON


def _valid_icaf(path):
    cfg = dmff.DmffConfig(mode="c", heads=1, ffn_hidden=2, shrink_window=1)
    wts = dmff.init_dmff_weights(cfg, 2, 2, 2, np.random.default_rng(0))
    weights_io.save_weights(wts, path)
    return path.read_bytes()


def _icaf_outcome(path, blob):
    path.write_bytes(blob)
    try:
        wts = weights_io.load_weights(path)
    except weights_io.WeightsFormatError:
        return
    spec = dmff.param_spec(wts.cfg, wts.height, wts.width, wts.channels)
    named = list(wts.named_tensors())
    assert [(n, t.shape) for n, t in named] == [(n, p.shape) for n, p in spec.items()]
    assert len({t.dtype for _, t in named}) <= 1


def _rawtensor_outcome(path, blob):
    path.write_bytes(blob)
    try:
        t = tc.read_rawtensor(path)
    except tc.ConfigurationError:
        return
    assert 1 <= t.data.ndim <= 3 and min(t.shape) >= 1
    assert t.dtype in (np.dtype(np.float32), np.dtype(np.float64))


@pytest.fixture(scope="module")
def icaf_blob(tmp_path_factory):
    return _valid_icaf(tmp_path_factory.mktemp("icaf") / "valid.icaf")


@FUZZ
@given(blob=st.binary(max_size=256))
def test_icaf_arbitrary_bytes(tmp_path, blob):
    _icaf_outcome(tmp_path / "w.icaf", blob)


@FUZZ
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=6),
       cut=st.integers(0, 10**6))
def test_icaf_byte_mutations(tmp_path, icaf_blob, edits, cut):
    blob = bytearray(icaf_blob)
    for pos, value in edits:
        blob[pos % len(blob)] = value
    _icaf_outcome(tmp_path / "w.icaf", bytes(blob[:len(blob) - cut % 64]))


@pytest.mark.parametrize("section", ["meta", "entry", "entries", "top"])
@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_icaf_manifest_mutations(tmp_path, icaf_blob, section, data):
    (mlen,) = struct.unpack("<I", icaf_blob[8:12])
    manifest = json.loads(icaf_blob[12:12 + mlen])
    payload = icaf_blob[12 + mlen:]
    entries = manifest["tensors"]
    if section == "meta":
        key = data.draw(st.sampled_from(sorted(manifest["meta"]) + ["extra"]))
        manifest["meta"][key] = data.draw(FIELD)
    elif section == "entry":
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        entry[data.draw(st.sampled_from(["name", "shape", "dtype"]))] = data.draw(FIELD)
    elif section == "entries":
        i = data.draw(st.integers(0, len(entries) - 1))
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if op == "drop":
            entries.pop(i)
        elif op == "duplicate":
            entries.insert(i, dict(entries[i]))
        else:
            entries[0], entries[i] = entries[i], entries[0]
    else:
        manifest[data.draw(st.sampled_from(["meta", "tensors"]))] = data.draw(JSON)
    blob = json.dumps(manifest).encode()
    tail = payload
    if section == "entries":
        tail = data.draw(st.sampled_from([payload, payload[:-4], payload + b"\0" * 8]))
    _icaf_outcome(tmp_path / "w.icaf",
                  b"ICAF" + struct.pack("<II", 1, len(blob)) + blob + tail)


@FUZZ
@given(blob=st.binary(max_size=128))
def test_rawtensor_arbitrary_bytes(tmp_path, blob):
    _rawtensor_outcome(tmp_path / "m.rawtensor", blob)


@FUZZ
@given(header=st.fixed_dictionaries(
           {"v": st.just(1) | JSON, "dtype": st.sampled_from(["f32", "f64"]) | JSON,
            "shape": st.lists(st.integers(-2, 4), max_size=4) | JSON}),
       drop=st.sets(st.sampled_from(["v", "dtype", "shape"])),
       nbytes=st.integers(0, 600))
def test_rawtensor_header_mutations(tmp_path, header, drop, nbytes):
    for key in drop:
        del header[key]
    blob = json.dumps(header).encode() + b"\n" + b"\x01" * nbytes
    _rawtensor_outcome(tmp_path / "m.rawtensor", blob)


def test_valid_files_load(tmp_path, icaf_blob):
    # the mutation tests start from files that load
    path = tmp_path / "w.icaf"
    path.write_bytes(icaf_blob)
    assert weights_io.load_weights(path).cfg.mode == "c"
    tc.write_rawtensor(tmp_path / "m.rawtensor", tc.zeros((2, 3)))
    assert tc.read_rawtensor(tmp_path / "m.rawtensor").shape == (2, 3)
