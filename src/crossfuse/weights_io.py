"""Weight-file container: magic "ICAF", version, JSON manifest, payload.

Layout:

    bytes 0..3    magic b"ICAF"
    bytes 4..7    format version, uint32 little-endian
    bytes 8..11   manifest byte length, uint32 little-endian
    manifest      UTF-8 JSON {"meta": {...}, "tensors": [{name, shape, dtype}]}
    payload       tensors concatenated little-endian, manifest order

The manifest meta carries the pipeline configuration and input extents,
so a load reconstructs the full weight structure, sharing included, through
``dmff.assemble``, which checks the tensor names, shapes and dtype against
the configuration.  Round trips are byte-exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np

from . import tensor_core as tc
from .dmff import DmffConfig, DmffWeights, assemble
from .tensor_core import Tensor

MAGIC = b"ICAF"
VERSION = 1


class WeightsFormatError(Exception):
    """Base for weight-file faults."""


class BadMagicError(WeightsFormatError):
    pass


class VersionMismatchError(WeightsFormatError):
    pass


class ManifestError(WeightsFormatError):
    pass


class TruncatedPayloadError(WeightsFormatError):
    pass


def save_weights(wts: DmffWeights, path):
    tensors = list(wts.named_tensors())
    manifest = {
        # every DmffConfig field plus the input extents
        "meta": dict(dataclasses.asdict(wts.cfg), height=wts.height, width=wts.width,
                     channels=wts.channels),
        "tensors": [
            {"name": name, "shape": list(t.shape), "dtype": tc.dtype_name(t.dtype)}
            for name, t in tensors
        ],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, t in tensors:
            fh.write(np.ascontiguousarray(t.data, dtype=t.data.dtype.newbyteorder("<")).tobytes())


def _take(blob: bytes, start: int, n: int, what: str) -> bytes:
    part = blob[start:start + n]
    if len(part) != n:
        raise TruncatedPayloadError(f"file ends inside {what}: wanted {n} bytes, got {len(part)}")
    return part


def _parse_entry(entry):
    try:
        name, shape = entry["name"], tuple(int(n) for n in entry["shape"])
        dtype = tc.dtype_from_name(entry["dtype"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"bad tensor entry {entry!r}: {exc}") from exc
    if not isinstance(name, str) or not shape or any(n < 1 for n in shape):
        raise ManifestError(f"tensor entry {entry!r} needs a string name and extents >= 1")
    return name, shape, dtype


def _config_from_meta(meta):
    try:
        cfg = DmffConfig(
            shrink_variant=meta["shrink_variant"],
            shrink_window=int(meta["shrink_window"]),
            heads=int(meta["heads"]),
            ffn_hidden=int(meta["ffn_hidden"]),
            iterations=int(meta["iterations"]),
            mode=meta["mode"],
            input_duplication=meta.get("input_duplication", "none"),
            sequential_update=bool(meta.get("sequential_update", False)),
        )
        return cfg, int(meta["height"]), int(meta["width"]), int(meta["channels"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"bad meta section: {exc}") from exc


def load_weights(path) -> DmffWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = _take(blob, 0, 4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", _take(blob, 4, 4, "version"))
    if version != VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    (manifest_len,) = struct.unpack("<I", _take(blob, 8, 4, "manifest length"))
    manifest_blob = _take(blob, 12, manifest_len, "manifest")
    try:
        manifest = json.loads(manifest_blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    payload = blob[12 + manifest_len:]  # a fresh bytes object, so tensor data stays aligned
    try:
        meta, entries = manifest["meta"], manifest["tensors"]
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest missing section: {exc}") from exc
    if not isinstance(entries, list):
        raise ManifestError("manifest tensors section is not a list")

    tensors = {}
    offset = 0
    for entry in entries:
        name, shape, dtype = _parse_entry(entry)
        if name in tensors:
            raise ManifestError(f"duplicate tensor name {name!r}")
        count = math.prod(shape)
        dt = np.dtype(dtype).newbyteorder("<")
        nbytes = count * dt.itemsize
        if offset + nbytes > len(payload):
            raise TruncatedPayloadError(
                f"payload ends inside tensor {name!r}: need {offset + nbytes} bytes, "
                f"have {len(payload)}"
            )
        arr = np.frombuffer(payload, dtype=dt, count=count, offset=offset).reshape(shape)
        tensors[name] = Tensor._wrap(np.ascontiguousarray(arr, dtype=dtype))
        offset += nbytes
    if offset != len(payload):
        raise ManifestError(
            f"manifest accounts for {offset} payload bytes but file has {len(payload)}"
        )
    cfg, height, width, channels = _config_from_meta(meta)
    try:
        return assemble(cfg, height, width, channels, tensors)
    except (tc.ConfigurationError, tc.DimensionError) as exc:
        raise ManifestError(str(exc)) from exc
