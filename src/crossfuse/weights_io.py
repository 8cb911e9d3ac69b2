"""Weight-file container: magic "ICAF", version, JSON manifest, payload.

Layout:

    bytes 0..3    magic b"ICAF"
    bytes 4..7    format version, uint32 little-endian
    bytes 8..11   manifest byte length, uint32 little-endian
    manifest      UTF-8 JSON {"meta": {...}, "tensors": [{name, shape, dtype}]}
    payload       the tensors' record payloads, concatenated in manifest order

Each table entry names a tensor record, as a rawtensor file holds one;
``tensor_core`` encodes, checks and decodes records, so this module knows
only the framing: magic, version, manifest, names, order and error kinds.

The manifest meta carries the pipeline configuration and input extents,
so a load rebuilds the weights through ``dmff.assemble``, which checks the
tensor names, shapes and dtype against the configuration and orders them
as ``param_spec`` does.  A set that several directions share is stored
once, under its one name per tensor.  The meta is read by ``dmff.config_from_json``: every
``DmffConfig`` field is required except ``input_duplication`` and
``sequential_update``, unknown keys are rejected, and each value must have
its field's JSON type; the extents, like every table shape, must be JSON
integers >= 1.  Round trips are byte-exact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct

from . import tensor_core as tc
from .dmff import DmffConfig, DmffWeights, assemble, config_from_json

MAGIC = b"ICAF"
VERSION = 1
_EXTENTS = ("height", "width", "channels")
# files written before these two config fields existed lack them
_META_KEYS = [f.name for f in dataclasses.fields(DmffConfig)
              if f.name not in ("input_duplication", "sequential_update")]


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
    records = [(name, *tc.encode_tensor(t)) for name, t in wts.named_tensors()]
    manifest = {
        # every DmffConfig field plus the input extents
        "meta": dict(dataclasses.asdict(wts.cfg), height=wts.height, width=wts.width,
                     channels=wts.channels),
        "tensors": [{"name": name, **fields} for name, fields, _ in records],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, _, payload in records:
            fh.write(payload)


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read(fh, n: int, what: str) -> bytes:
    """The next `n` bytes of `fh`, read only once the file is known to hold
    them, so a stated size past the file's end is never allocated."""
    left = _bytes_left(fh)
    if n > left:
        raise TruncatedPayloadError(f"file ends inside {what}: wanted {n} bytes, got {left}")
    return fh.read(n)


def _config_from_meta(meta):
    if not isinstance(meta, dict):
        raise ManifestError(f"meta section is not a JSON object: {meta!r}")
    missing = [k for k in (*_META_KEYS, *_EXTENTS) if k not in meta]
    if missing:
        raise ManifestError(f"meta section lacks {missing}")
    try:
        cfg = config_from_json(DmffConfig, {k: v for k, v in meta.items() if k not in _EXTENTS},
                               "meta")
        return (cfg, *tc.json_shape([meta[k] for k in _EXTENTS], "meta input extents"))
    except tc.ConfigurationError as exc:
        raise ManifestError(f"bad meta section: {exc}") from exc


def load_weights(path) -> DmffWeights:
    """An ICAF file's weights.  Reads the 12-byte prefix, then the manifest,
    and checks every table entry and the payload's total size against the
    bytes left in the file before it reads the payload, so a malformed file
    costs no more than a valid one."""
    with open(path, "rb") as fh:
        magic = _read(fh, 4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read(fh, 4, "version"))
        if version != VERSION:
            raise VersionMismatchError(f"unsupported format version {version}")
        (manifest_len,) = struct.unpack("<I", _read(fh, 4, "manifest length"))
        manifest_blob = _read(fh, manifest_len, "manifest")
        try:
            manifest = json.loads(manifest_blob.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        try:
            meta, entries = manifest["meta"], manifest["tensors"]
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"manifest missing section: {exc}") from exc
        if not isinstance(entries, list):
            raise ManifestError("manifest tensors section is not a list")

        left = _bytes_left(fh)
        layouts = {}  # name -> (offset, shape, dtype) in the payload
        offset = 0
        for entry in entries:
            try:
                shape, dt, nbytes = tc.tensor_layout(entry, "tensor entry")
            except tc.ConfigurationError as exc:
                raise ManifestError(f"bad tensor entry {entry!r}: {exc}") from exc
            name = entry.get("name")
            if not isinstance(name, str):
                raise ManifestError(f"tensor entry {entry!r} needs a string name")
            if name in layouts:
                raise ManifestError(f"duplicate tensor name {name!r}")
            if offset + nbytes > left:
                raise TruncatedPayloadError(
                    f"payload ends inside tensor {name!r}: need {offset + nbytes} bytes, "
                    f"have {left}"
                )
            layouts[name] = (offset, shape, dt)
            offset += nbytes
        if offset != left:
            raise ManifestError(
                f"manifest accounts for {offset} payload bytes but file has {left}"
            )
        # a fresh bytes object, so tensor data stays aligned
        payload = _read(fh, offset, "payload")
    tensors = {name: tc.decode_tensor(payload, *layout) for name, layout in layouts.items()}
    cfg, height, width, channels = _config_from_meta(meta)
    try:
        return assemble(cfg, height, width, channels, tensors)
    except (tc.ConfigurationError, tc.DimensionError) as exc:
        raise ManifestError(str(exc)) from exc
