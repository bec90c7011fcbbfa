import json

import numpy as np
import pytest

from lrlm import lowrank
from lrlm import transformer as tfm
from lrlm.checkpoint import ALIGN, MAGIC, CheckpointError, load_checkpoint, save_checkpoint

TOY = tfm.ModelConfig(vocab=13, dim=8, heads=2, layers=2, ffn_dim=12, max_seq=16)


def test_save_load_save_is_byte_identical(tmp_path):
    model = tfm.build_model(TOY, seed=1)
    a, b = tmp_path / "a.lrlm", tmp_path / "b.lrlm"
    save_checkpoint(a, model)
    save_checkpoint(b, load_checkpoint(a))
    assert a.read_bytes() == b.read_bytes()


def test_loaded_model_reproduces_logits(tmp_path):
    model = tfm.build_model(TOY, seed=2)
    path = tmp_path / "m.lrlm"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    tokens = np.arange(9) % 13
    a, _ = tfm.model_forward(model, tokens)
    b, _ = tfm.model_forward(loaded, tokens)
    assert np.array_equal(a, b)


def test_magic_and_alignment(tmp_path):
    model = tfm.build_model(TOY, seed=3)
    path = tmp_path / "m.lrlm"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    for name, ent in header["tensors"].items():
        assert ent["offset"] % ALIGN == 0, name


def test_version_mismatch_rejected(tmp_path):
    model = tfm.build_model(TOY, seed=4)
    path = tmp_path / "m.lrlm"
    save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    bad = tmp_path / "bad.lrlm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.lrlm"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    model = tfm.build_model(TOY, seed=5)
    path = tmp_path / "m.lrlm"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    trunc = tmp_path / "t.lrlm"
    trunc.write_bytes(raw[: len(raw) * 2 // 3])
    with pytest.raises(CheckpointError, match="run.? past end|truncated"):
        load_checkpoint(trunc)


def test_overlapping_tensors_rejected(tmp_path):
    model = tfm.build_model(TOY, seed=6)
    path = tmp_path / "m.lrlm"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    names = sorted(header["tensors"])
    header["tensors"][names[1]]["offset"] = header["tensors"][names[0]]["offset"]
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # Rebuild with the corrupted header, padding preserved.
    body = raw[16 + header_len :]
    pad = (-(16 + header_len)) % ALIGN
    payload = body[pad:]
    out = bytearray()
    out += MAGIC + (1).to_bytes(4, "little") + len(new_header).to_bytes(8, "little") + new_header
    out += b"\x00" * ((-len(out)) % ALIGN)
    out += payload
    bad = tmp_path / "o.lrlm"
    bad.write_bytes(bytes(out))
    with pytest.raises(CheckpointError, match="overlap"):
        load_checkpoint(bad)


def test_quantized_companions_required(tmp_path):
    model = tfm.quantize_model(tfm.build_model(TOY, seed=7), 8, targets=("wq",))
    path = tmp_path / "q.lrlm"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    assert "layers.0.wq.scale" in header["tensors"]
    assert "layers.0.wq.offset" in header["tensors"]
    loaded = load_checkpoint(path)
    tokens = np.arange(5) % 13
    a, _ = tfm.model_forward(model, tokens)
    b, _ = tfm.model_forward(loaded, tokens)
    assert np.array_equal(a, b)


def test_4bit_quantized_roundtrip(tmp_path):
    model = tfm.quantize_model(tfm.build_model(TOY, seed=8), 4, targets=("wq", "wu"))
    path = tmp_path / "q4.lrlm"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    tokens = np.arange(7) % 13
    a, _ = tfm.model_forward(model, tokens)
    b, _ = tfm.model_forward(loaded, tokens)
    assert np.array_equal(a, b)


def test_lora_merged_flag_roundtrip(tmp_path):
    model = lowrank.attach_adapters(tfm.build_model(TOY, seed=9), r=2, targets=("wq",), seed=1)
    model.layers[0].wq.up.data[:] = 0.25
    merged = lowrank.merge_model(model)
    path = tmp_path / "merged.lrlm"
    save_checkpoint(path, merged)
    loaded = load_checkpoint(path)
    tokens = np.arange(6) % 13
    a, _ = tfm.model_forward(merged, tokens)
    b, _ = tfm.model_forward(loaded, tokens)
    np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-7)


def test_blend_checkpoint_roundtrip(tmp_path):
    model = lowrank.blend_model(tfm.build_model(TOY, seed=11), r=2,
                                start_alpha=0.7, end_step=9, targets=("wq", "wu"), seed=2)
    path = tmp_path / "blend.lrlm"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.layers[0].wq.start_alpha == pytest.approx(0.7)
    assert loaded.layers[0].wq.end_step == 9
    tokens = np.arange(8) % 13
    for step in (0, 4, 9):
        a, _ = tfm.model_forward(model, tokens, step=step)
        b, _ = tfm.model_forward(loaded, tokens, step=step)
        assert np.array_equal(a, b), step


def test_decomposed_checkpoint_smaller_by_closed_form(tmp_path):
    cfg = tfm.ModelConfig(vocab=32, dim=16, heads=2, layers=2, ffn_dim=24, max_seq=16)
    dense = tfm.build_model(cfg, seed=10)
    low = lowrank.decompose_model(dense, 4, targets=("wq", "wk", "wv", "wo", "wu", "wg", "wd"))
    p_dense, p_low = tmp_path / "d.lrlm", tmp_path / "l.lrlm"
    save_checkpoint(p_dense, dense)
    save_checkpoint(p_low, low)
    assert p_low.stat().st_size < p_dense.stat().st_size
    # Payload shrink tracks the parameter count reduction.
    ratio_params = low.param_count() / dense.param_count()
    ratio_bytes = p_low.stat().st_size / p_dense.stat().st_size
    assert abs(ratio_bytes - ratio_params) < 0.12  # header + alignment overhead


def _split(raw: bytes):
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    payload = raw[16 + header_len + (-(16 + header_len)) % ALIGN :]
    return header, payload


def _join(header: dict, payload: bytes) -> bytes:
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray(MAGIC + (1).to_bytes(4, "little") + len(body).to_bytes(8, "little") + body)
    out += b"\x00" * ((-len(out)) % ALIGN)
    return bytes(out) + payload


def _edit_header(edit):
    def corrupt(raw):
        header, payload = _split(raw)
        edit(header)
        return _join(header, payload)
    return corrupt


def _extra_tensor(raw):
    header, payload = _split(raw)
    payload += b"\x00" * ((-len(payload)) % ALIGN)
    header["tensors"]["zz.extra"] = {"dtype": "f32", "shape": [2], "offset": len(payload), "length": 8}
    return _join(header, payload + b"\x00" * 8)


_CORRUPTIONS = {
    "unknown-config-key": (_edit_header(lambda h: h["model_config"].update(depth=3)), "model config"),
    "missing-config-key": (_edit_header(lambda h: h["model_config"].pop("heads")), "model config"),
    "unknown-spec-key": (_edit_header(lambda h: h["layer_specs"]["wq"].update(bogus=1)), "layer spec"),
    "unknown-dtype": (_edit_header(lambda h: h["tensors"]["head.weight"].update(dtype="f16")), "dtype"),
    "shape-vs-config": (_edit_header(lambda h: h["model_config"].update(vocab=10**9)), "shape"),
    "length-vs-shape": (_edit_header(lambda h: h["tensors"]["head.weight"].update(length=64)), "length"),
    "missing-tensors": (_edit_header(lambda h: h.pop("tensors")), "tensors"),
    "missing-offset": (_edit_header(lambda h: h["tensors"]["head.weight"].pop("offset")), "offset"),
    "missing-length": (_edit_header(lambda h: h["tensors"]["embed.weight"].pop("length")), "length"),
    "missing-tensor": (_edit_header(lambda h: h["tensors"].pop("layers.1.norm2.gain")), "missing tensor"),
    "extra-tensor": (_extra_tensor, "does not use"),
    "truncated-header": (lambda raw: raw[:40], "header runs past"),
    "truncated-payload": (lambda raw: raw[: len(raw) - 100], "past end"),
}


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
def test_corrupt_checkpoint_rejected(tmp_path, capsys, name):
    from lrlm import cli

    corrupt, message = _CORRUPTIONS[name]
    good = tmp_path / "good.lrlm"
    save_checkpoint(good, tfm.build_model(TOY, seed=12))
    bad = tmp_path / "bad.lrlm"
    bad.write_bytes(corrupt(good.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(bad)
    rc = cli.main(["--out", str(tmp_path / "o"), "infer", "--checkpoint", str(bad), "--prompt", "hi"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_every_kind_loads_from_its_table(tmp_path):
    base = tfm.build_model(TOY, seed=13)
    models = {
        "lowrank": lowrank.decompose_model(base, 3),
        "q4": tfm.quantize_model(base, 4, targets=("wq", "wh")),
        "lora-q8": lowrank.attach_adapters(tfm.quantize_model(base, 8), r=2, targets=("wq", "wv"), seed=3),
        "blend": lowrank.blend_model(base, r=2, start_alpha=0.6, end_step=5, seed=4),
    }
    tokens = np.arange(7) % 13
    for name, model in models.items():
        path = tmp_path / f"{name}.lrlm"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.specs == model.specs, name
        assert loaded.state_signature() == model.state_signature(), name
        a, _ = tfm.model_forward(model, tokens, step=2)
        b, _ = tfm.model_forward(loaded, tokens, step=2)
        assert np.array_equal(a, b), name


def test_loaded_tensors_free_the_file_buffer_with_the_model(tmp_path):
    import gc
    import weakref

    path = tmp_path / "q.lrlm"
    save_checkpoint(path, tfm.quantize_model(tfm.build_model(TOY, seed=14), 8, targets=("wq",)))
    gc.disable()
    try:
        model = load_checkpoint(path)
        buf = model.head.weight.data
        while buf.base is not None:
            buf = buf.base
        ref = weakref.ref(buf)
        del model, buf
        assert ref() is None  # freed by reference counting, no cycle left behind
    finally:
        gc.enable()
