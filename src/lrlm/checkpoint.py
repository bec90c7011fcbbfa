"""Binary checkpoint format.

Layout: magic "LRLM" | version u32 LE | header length u64 LE | UTF-8 JSON
header | zero padding to a 64-byte boundary | tensor payload. Every tensor
starts at a 64-byte-aligned offset relative to the payload start and is stored
as raw little-endian bytes: "f32", or packed quantized codes under "u8q"/"u4q"
with companion "<name>.scale" / "<name>.offset" float32 tensors. Every
backend is saved as its terms, one tensor table entry per term. Saving is
deterministic, so save(load(x)) is byte-identical to x.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .lowrank import lora_merge
from .quant import QuantizedMatrix
from .transformer import DecoderModel, LayerSpec, ModelConfig, ModelError, assemble_model, full_specs

__all__ = ["CheckpointError", "MAGIC", "VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"LRLM"
VERSION = 1
ALIGN = 64

_DTYPES = {
    "f32": np.dtype("<f4"),
    "u8q": np.dtype("<u1"),
    "u4q": np.dtype("<u1"),
}
_QBITS = {"u8q": 8, "u4q": 4}
_ENTRY_KEYS = ("dtype", "shape", "offset", "length")


class CheckpointError(RuntimeError):
    pass


def _entries(model: DecoderModel):
    """Deterministically ordered (name, dtype_tag, logical_shape, array) entries."""
    entries = []
    for name, data in model.tensors():
        if isinstance(data, QuantizedMatrix):
            entries.append((name, f"u{data.bits}q", [data.rows, data.cols], data.codes))
            entries.append((name + ".scale", "f32", list(data.scale.shape), data.scale))
            entries.append((name + ".offset", "f32", list(data.offset.shape), data.offset))
        else:
            entries.append((name, "f32", list(data.shape), data))
    entries.sort(key=lambda e: e[0])
    return entries


def save_checkpoint(path, model: DecoderModel) -> None:
    if model.dtype != np.float32:
        model = model.astype(np.float32)

    table = {}
    offset = 0
    blobs = []
    for name, tag, shape, array in _entries(model):
        raw = np.ascontiguousarray(array).astype(_DTYPES[tag], copy=False)
        table[name] = {"dtype": tag, "shape": shape, "offset": offset, "length": raw.nbytes}
        blobs.append(raw)
        offset += raw.nbytes + (-raw.nbytes) % ALIGN

    header = {
        "layer_specs": {k: v.to_dict() for k, v in model.specs.items()},
        "merged": {p: m.merged for p, m in model.named_matrices() if m.merged is not None},
        "model_config": model.config.to_dict(),
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = MAGIC + VERSION.to_bytes(4, "little") + len(header_bytes).to_bytes(8, "little") + header_bytes
    chunks = [head, b"\x00" * ((-len(head)) % ALIGN)]
    for raw in blobs:
        chunks += [raw.data, b"\x00" * ((-raw.nbytes) % ALIGN)]
    Path(path).write_bytes(b"".join(chunks))


def _read_header(data: np.ndarray):
    if len(data) < 16 or data[:4].tobytes() != MAGIC:
        raise CheckpointError("not a checkpoint: bad magic")
    version = int.from_bytes(data[4:8].tobytes(), "little")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, expected {VERSION}")
    hlen = int.from_bytes(data[8:16].tobytes(), "little")
    if 16 + hlen > len(data):
        raise CheckpointError("truncated checkpoint: header runs past end of file")
    try:
        header = json.loads(data[16 : 16 + hlen].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt header: {exc}") from exc
    sections = ("model_config", "layer_specs", "tensors")
    if not isinstance(header, dict) or not all(isinstance(header.get(k), dict) for k in sections) \
            or not isinstance(header.get("merged", {}), dict):
        raise CheckpointError(f"corrupt header: {', '.join(sections)} and merged must be objects")
    payload_start = 16 + hlen
    payload_start += (-payload_start) % ALIGN
    return header, payload_start


def _validate_table(table: dict, payload_len: int):
    """Check every entry's keys, dtype tag, shape, length and bounds, and that
    no two overlap, before any tensor is read."""
    spans = []
    for name, ent in table.items():
        missing = [k for k in _ENTRY_KEYS if not isinstance(ent, dict) or k not in ent]
        if missing:
            raise CheckpointError(f"{name}: table entry is missing {missing}")
        tag, shape, off, length = (ent[k] for k in _ENTRY_KEYS)
        if tag not in _DTYPES:
            raise CheckpointError(f"{name}: unknown dtype tag {tag!r}")
        ints = [off, length] + (shape if isinstance(shape, list) else [None])
        if not all(isinstance(v, int) and v >= 0 for v in ints) or (tag in _QBITS and len(shape) != 2):
            raise CheckpointError(f"{name}: malformed shape {shape!r}, offset {off!r} or length {length!r}")
        stored = [shape[0], (shape[1] + 1) // 2] if tag == "u4q" else shape
        if length != int(np.prod(stored)) * _DTYPES[tag].itemsize:
            raise CheckpointError(f"{name}: length {length} does not hold a {tag} tensor of shape {shape}")
        if off % ALIGN:
            raise CheckpointError(f"{name}: offset {off} not {ALIGN}-byte aligned")
        if off + length > payload_len:
            raise CheckpointError(f"{name}: tensor bytes run past end of file (truncated?)")
        spans.append((off, off + length, name))
        if tag in _QBITS:
            for companion in (name + ".scale", name + ".offset"):
                if companion not in table:
                    raise CheckpointError(f"{name}: missing companion tensor {companion}")
    spans.sort()
    for (a0, a1, n1), (b0, _b1, n2) in zip(spans, spans[1:]):
        if b0 < a1:
            raise CheckpointError(f"overlapping tensors {n1} and {n2}")


def load_checkpoint(path) -> DecoderModel:
    """Build the model straight from the tensor table: every tensor is a view
    of the file's bytes, checked against the config and layer specs first."""
    data = np.fromfile(path, dtype=np.uint8)
    header, payload_start = _read_header(data)
    table = header["tensors"]
    _validate_table(table, len(data) - payload_start)
    consumed = set()

    def read(name, shape, tag="f32"):
        ent = table.get(name)
        if ent is None:
            raise CheckpointError(f"checkpoint is missing tensor {name}")
        if ent["dtype"] != tag:
            raise CheckpointError(f"{name}: expected dtype {tag}, found {ent['dtype']}")
        if ent["shape"] != list(shape):
            raise CheckpointError(f"{name}: shape {ent['shape']} disagrees with {list(shape)} from the header")
        consumed.add(name)
        start = payload_start + ent["offset"]
        raw = data[start : start + ent["length"]]
        return raw.view(_DTYPES["f32"]).reshape(shape) if tag == "f32" else raw.reshape(shape[0], -1)

    # Not recursive: a closure that refers to itself would keep the file's
    # buffer alive in a reference cycle until the next garbage collection.
    def draw(name, shape, init="normal", bits=None):
        if not bits:
            return read(name, shape)
        rows, cols = shape
        return QuantizedMatrix(rows=rows, cols=cols, bits=bits, codes=read(name, shape, f"u{bits}q"),
                               scale=read(name + ".scale", (rows,)), offset=read(name + ".offset", (rows,)))

    try:
        config = ModelConfig.from_dict(header["model_config"])
        specs = full_specs({k: LayerSpec.from_dict(v) for k, v in header["layer_specs"].items()})
        model = assemble_model(config, specs, draw, np.float32,
                               stored_bits=lambda name: _QBITS.get(table.get(name, {}).get("dtype")))
    except ModelError as exc:
        raise CheckpointError(f"header does not describe a model: {exc}") from exc
    unused = sorted(set(table) - consumed)
    if unused:
        raise CheckpointError(f"tensors the model does not use: {unused}")

    mats = dict(model.named_matrices())
    for name, flag in header.get("merged", {}).items():
        if getattr(mats.get(name), "merged", None) is None:
            raise CheckpointError(f"merged flag for {name}, which holds no adapter")
        if flag:
            lora_merge(mats[name])
    return model
