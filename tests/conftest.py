import dataclasses
import json
import struct

import numpy as np
import pytest

from crossfuse import tensor_core as tc


# Fixed before comparing: a reassociated kernel against its former form.
DTYPE_TOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def fd_gradient(loss_fn, tensor: tc.Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued loss over every
    coordinate of `tensor`.  Independent of the tape machinery."""
    base = np.array(tensor.data, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        lp = loss_fn(tc.Tensor(bumped.reshape(base.shape), dtype=np.float64))
        bumped[i] = flat[i] - eps
        lm = loss_fn(tc.Tensor(bumped.reshape(base.shape), dtype=np.float64))
        gflat[i] = (lp - lm) / (2.0 * eps)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# --- malformed input files ------------------------------------------------------

# Each header is paired with a payload of the byte count its shape would
# imply, so that only the header itself is at fault.
RAWTENSOR_PROBES = {
    "zero_extent": (b'{"v": 1, "dtype": "f32", "shape": [0, 4]}', 0),
    "rank_4": (b'{"v": 1, "dtype": "f32", "shape": [2, 2, 2, 2]}', 64),
    "negative_extent": (b'{"v": 1, "dtype": "f32", "shape": [-1, 4]}', 16),
    "not_an_object": (b"[1]", 4),
    "shape_is_a_string": (b'{"v": 1, "dtype": "f32", "shape": "ab"}', 8),
    "fractional_extent": (b'{"v": 1, "dtype": "f32", "shape": [2.5, 2]}', 20),
    "dtype_is_a_list": (b'{"v": 1, "dtype": ["f32"], "shape": [2]}', 8),
    "string_extents": (b'{"v": 1, "dtype": "f32", "shape": ["8", "8"]}', 256),
    "boolean_extent": (b'{"v": 1, "dtype": "f32", "shape": [true, 2]}', 8),
    "boolean_version": (b'{"v": true, "dtype": "f32", "shape": [4, 4, 8]}', 512),
    "real_version": (b'{"v": 1.0, "dtype": "f32", "shape": [4, 4, 8]}', 512),
}


def write_rawtensor_probe(path, kind):
    header, nbytes = RAWTENSOR_PROBES[kind]
    path.write_bytes(header + b"\n" + b"\x00" * nbytes)
    return path


def write_icaf(path, meta, entries, shapes=None):
    """An ICAF file from a meta section and (name, array) pairs, written
    without save_weights so that malformed tensor tables can be built.
    `shapes` maps a name to the shape its table entry states instead of
    its array's."""
    names = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
    shapes = shapes or {}
    manifest = {"meta": meta, "tensors": [
        {"name": n, "shape": shapes.get(n, list(a.shape)), "dtype": names[a.dtype]}
        for n, a in entries]}
    blob = json.dumps(manifest, sort_keys=True).encode()
    payload = b"".join(np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes()
                       for _, a in entries)
    path.write_bytes(b"ICAF" + struct.pack("<II", 1, len(blob)) + blob + payload)
    return path


ICAF_PROBES = ("wrong_shape", "duplicate_name", "unknown_name", "missing_name",
               "mixed_dtype", "heads_not_dividing_channels", "iterations_past_bound",
               "fractional_iterations", "string_flag", "boolean_heads", "real_extent",
               "unknown_meta_key", "missing_meta_key", "fractional_shape", "string_shape")


def write_icaf_probe(path, kind):
    """A mode-d 4x4x8 weight file with one defect of the given kind, or
    none when `kind` is None."""
    from crossfuse.dmff import DmffConfig, init_dmff_weights

    cfg = DmffConfig(mode="d", heads=2, ffn_hidden=16)
    wts = init_dmff_weights(cfg, 4, 4, 8, np.random.default_rng(0))
    meta = dict(dataclasses.asdict(cfg), height=4, width=4, channels=8)
    entries = [(n, t.data) for n, t in wts.named_tensors()]
    if kind == "wrong_shape":
        entries[0] = (entries[0][0], entries[0][1].reshape(-1))
    elif kind == "duplicate_name":
        entries.append(entries[0])
    elif kind == "unknown_name":
        entries.append(("cfe_r.w_z", entries[0][1]))
    elif kind == "missing_name":
        entries.pop(0)
    elif kind == "mixed_dtype":
        entries[0] = (entries[0][0], entries[0][1].astype(np.float64))
    elif kind == "heads_not_dividing_channels":
        meta["heads"] = 3
    elif kind == "iterations_past_bound":
        meta["iterations"] = 10 ** 9
    elif kind == "fractional_iterations":
        meta["iterations"] = 2.9
    elif kind == "string_flag":
        meta["sequential_update"] = "false"
    elif kind == "boolean_heads":
        meta["heads"] = True
    elif kind == "real_extent":
        meta["height"] = 4.0
    elif kind == "unknown_meta_key":
        meta["dropout"] = 0.1
    elif kind == "missing_meta_key":
        del meta["mode"]
    shapes = {"fractional_shape": [8.5, 8], "string_shape": ["8", "8"]}
    return write_icaf(path, meta, entries,
                      {entries[0][0]: shapes[kind]} if kind in shapes else None)
