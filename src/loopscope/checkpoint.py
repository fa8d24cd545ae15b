"""Checkpoint file format.

Layout: magic, format version, JSON header with the model config, JSON
manifest of (name, offset, shape) entries, then a flat little-endian float32
weight blob. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import LoopedConfig, LoopedModelParams, expected_param_count, init_params

MAGIC = b"LPSCCKPT"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint file."""


def save_checkpoint(params: LoopedModelParams, path) -> None:
    named = params.named_tensors()
    manifest = []
    offset = 0
    blobs = []
    for name, t in named:
        arr = np.ascontiguousarray(t.data, dtype="<f4")
        manifest.append({"name": name, "offset": offset, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
        offset += arr.size
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "config": params.config.to_dict()},
        sort_keys=True).encode()
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", len(header), len(manifest_bytes)))
        f.write(header)
        f.write(manifest_bytes)
        for b in blobs:
            f.write(b)


def load_checkpoint(path) -> LoopedModelParams:
    """Read a checkpoint; any malformed content raises CheckpointError.

    The manifest must list every tensor of the header's config once, with
    its shape, and the entries must tile the blob in order: each starts
    where the one before it ends, and the last ends at the end of the file.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 8 or raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    hlen, mlen = struct.unpack_from("<II", raw, len(MAGIC))
    pos = len(MAGIC) + 8
    try:
        header = json.loads(raw[pos:pos + hlen])
        manifest = json.loads(raw[pos + hlen:pos + hlen + mlen])
    except ValueError as e:
        raise CheckpointError(f"corrupt header/manifest: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError("corrupt header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"format version {header.get('format_version')} != {FORMAT_VERSION}")
    try:
        config = LoopedConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"header config rejected: {e!r}") from e
    blob = raw[pos + hlen + mlen:]
    if len(blob) != 4 * expected_param_count(config):
        raise CheckpointError(
            f"weight blob holds {len(blob)} bytes, the config needs "
            f"{4 * expected_param_count(config)}")
    if not isinstance(manifest, list) or not all(
            isinstance(e, dict) and {"name", "offset", "shape"} <= e.keys()
            for e in manifest):
        raise CheckpointError(
            "corrupt manifest: not a list of name/offset/shape entries")

    # instantiate with the right structure, then overwrite every tensor
    params = init_params(config, seed=0, dtype=np.float32)
    expected = dict(params.named_tensors())
    offset = 0
    for entry in manifest:
        name, off, shape = entry["name"], entry["offset"], entry["shape"]
        target = expected.pop(name, None) if isinstance(name, str) else None
        if target is None:
            raise CheckpointError(f"manifest entry {name!r} is not a tensor "
                                  "of the config, or is listed twice")
        if shape != list(target.data.shape):
            raise CheckpointError(f"shape mismatch for {name}: {shape}")
        if type(off) is not int or off != offset:
            raise CheckpointError(f"corrupt manifest: {name} at offset {off!r}, "
                                  f"where the entry before it ends at {offset}")
        n = target.data.size
        target.data = np.frombuffer(blob[4 * off:4 * (off + n)],
                                    dtype="<f4").reshape(target.data.shape).copy()
        offset += n
    if expected:
        raise CheckpointError(f"manifest lacks {sorted(expected)}")
    return params
