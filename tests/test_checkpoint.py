import json
import struct

import numpy as np
import pytest

from loopscope.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from loopscope.model import LoopedConfig, init_params, run_deliberation

CFG = LoopedConfig(vocab_size=12, d_model=8, n_heads=2, max_seq=6, k_max=5)


def test_round_trip_bit_exact(tmp_path):
    params = init_params(CFG, seed=3)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(params, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (na, ta), (nb, tb) in zip(params.named_tensors(), loaded.named_tensors()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_loaded_params_reproduce_outputs(tmp_path):
    params = init_params(CFG, seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    a = run_deliberation([1, 2, 3], params, k=3)
    b = run_deliberation([1, 2, 3], loaded, k=3)
    for da, db in zip(a, b):
        assert np.array_equal(da.probs, db.probs)


def test_truncated_file_rejected(tmp_path):
    params = init_params(CFG, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 64])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    import loopscope.checkpoint as ck
    params = init_params(CFG, seed=6)
    path = tmp_path / "m.ckpt"
    old = ck.FORMAT_VERSION
    try:
        ck.FORMAT_VERSION = old + 1
        save_checkpoint(params, path)
    finally:
        ck.FORMAT_VERSION = old
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def _rewrite(path, edit):
    """Rewrite a checkpoint with edit(header, manifest, blob) applied."""
    raw = path.read_bytes()
    hlen, mlen = struct.unpack_from("<II", raw, 8)
    header = json.loads(raw[16:16 + hlen])
    manifest = json.loads(raw[16 + hlen:16 + hlen + mlen])
    header, manifest, blob = edit(header, manifest, raw[16 + hlen + mlen:])
    h, m = json.dumps(header).encode(), json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + struct.pack("<II", len(h), len(m)) + h + m + blob)


def _drop_config(h, m, b):
    del h["config"]
    return h, m, b


def _unknown_config_key(h, m, b):
    h["config"]["no_such_field"] = 1
    return h, m, b


def _entry_without_offset(h, m, b):
    del m[3]["offset"]
    return h, m, b


def _manifest_dict(h, m, b):
    return h, {e["name"]: e for e in m}, b


def _same_offset_twice(h, m, b):
    # two same-shape tensors read from one place; the blob keeps its size
    m[3]["offset"] = m[2]["offset"]
    return h, m, b


def _trailing_bytes(h, m, b):
    return h, m, b + b"\0" * 8


@pytest.mark.parametrize("edit", [
    _drop_config, _unknown_config_key, _entry_without_offset, _manifest_dict,
    _same_offset_twice, _trailing_bytes])
def test_malformed_checkpoint_rejected(tmp_path, edit):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_params(CFG, seed=7), path)
    _rewrite(path, lambda h, m, b: (h, m, b))
    load_checkpoint(path)   # the rewrite alone keeps the file valid
    _rewrite(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_cli_trace_on_corrupt_checkpoint_fails(tmp_path, capsys):
    from loopscope.cli import main as cli_main
    from tests.test_pipeline import tiny_config

    config = tiny_config(tmp_path / "run")
    cfg_path = tmp_path / "c.json"
    config.write_json(cfg_path)
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    _rewrite(tmp_path / "run" / "model.ckpt", _drop_config)
    capsys.readouterr()
    assert cli_main(["trace", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "config" in err
