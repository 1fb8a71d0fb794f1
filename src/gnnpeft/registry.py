"""Named parameter store with trainable flags, plus checkpoint archive IO.

The registry is the mechanism behind every tuning mode: a flat map
name -> (tensor, trainable, group). Groups are ``backbone`` (encoder +
layer stacks), ``peft`` (inserted modules), and ``classifier``. Buffers
(BN running statistics) live beside parameters but carry no flags —
they are state, not weights, and keep updating even for frozen layers.

Checkpoint format: one UTF-8 JSON manifest line listing
{name, kind, shape, dtype, offset} per entry plus metadata, then a raw
little-endian float32 payload. Loading upcasts to float64. A 32-bit
round-trip (save -> load -> save) is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .tensor import Tensor


class CheckpointFormatError(ValueError):
    """A checkpoint file is malformed or inconsistent with the manifest."""


@dataclass
class Param:
    tensor: Tensor
    trainable: bool
    group: str


GROUPS = ("backbone", "peft", "classifier")


class ParamRegistry:
    """Ordered name -> Param map with trainable-flag bookkeeping.

    ``trainable`` and the tensor's ``requires_grad`` are kept in sync, so
    backward passes skip frozen subgraphs without extra plumbing.
    """

    def __init__(self):
        self.params: dict[str, Param] = {}
        self.buffers: dict[str, np.ndarray] = {}

    # -- construction -------------------------------------------------
    def add(self, name: str, data, trainable: bool, group: str) -> Tensor:
        if name in self.params or name in self.buffers:
            raise KeyError(f"duplicate registry name {name!r}")
        if group not in GROUPS:
            raise ValueError(f"unknown group {group!r}")
        t = Tensor(data, requires_grad=trainable)
        self.params[name] = Param(t, bool(trainable), group)
        return t

    def add_buffer(self, name: str, data) -> np.ndarray:
        if name in self.params or name in self.buffers:
            raise KeyError(f"duplicate registry name {name!r}")
        arr = np.asarray(data, dtype=np.float64)
        self.buffers[name] = arr
        return arr

    def remove(self, name: str) -> None:
        del self.params[name]

    # -- access -------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self.params

    def get(self, name: str) -> Tensor:
        return self.params[name].tensor

    def buffer(self, name: str) -> np.ndarray:
        return self.buffers[name]

    def names(self) -> list[str]:
        return list(self.params)

    def items(self) -> Iterator[tuple[str, Param]]:
        return iter(self.params.items())

    def trainable_tensors(self) -> list[tuple[str, Tensor]]:
        return [(n, p.tensor) for n, p in self.params.items() if p.trainable]

    # -- flag policy ---------------------------------------------------
    def set_trainable(self, name: str, flag: bool) -> None:
        p = self.params[name]
        p.trainable = bool(flag)
        p.tensor.set_requires_grad(flag)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.tensor.zero_grad()

    # -- integrity ----------------------------------------------------
    def tensor_hashes(self) -> dict[str, str]:
        """Per-parameter content hash; used to prove freeze invariance."""
        return {n: hashlib.sha256(p.tensor.data.tobytes()).hexdigest()
                for n, p in self.params.items()}

    def state_hash(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].tensor.data.tobytes())
        for name in sorted(self.buffers):
            h.update(name.encode())
            h.update(self.buffers[name].tobytes())
        return h.hexdigest()

    # -- state transfer -------------------------------------------------
    def load_state(self, params: dict[str, np.ndarray],
                   buffers: dict[str, np.ndarray]) -> None:
        """Assign loaded arrays into existing entries by name.

        Unknown names are an error; names absent from the maps keep their
        current values (supports encoder-only checkpoints).
        """
        for name, arr in params.items():
            if name not in self.params:
                raise CheckpointFormatError(f"checkpoint parameter {name!r} "
                                            "does not exist in this model")
            t = self.params[name].tensor
            if t.data.shape != arr.shape:
                raise CheckpointFormatError(
                    f"shape mismatch for {name!r}: model {t.data.shape}, "
                    f"checkpoint {arr.shape}")
            t.data[...] = arr
        for name, arr in buffers.items():
            if name not in self.buffers:
                raise CheckpointFormatError(f"checkpoint buffer {name!r} "
                                            "does not exist in this model")
            if self.buffers[name].shape != arr.shape:
                raise CheckpointFormatError(f"shape mismatch for buffer {name!r}")
            self.buffers[name][...] = arr


# ---------------------------------------------------------------------------
# checkpoint archive
# ---------------------------------------------------------------------------

def save_checkpoint(path, registry: ParamRegistry, meta: dict,
                    param_names: Optional[Iterable[str]] = None) -> None:
    """Write selected parameters (default: all) plus all buffers.

    Entries are serialized in sorted-name order as little-endian float32.
    """
    if param_names is None:
        param_names = list(registry.params)
    param_names = sorted(param_names)
    for n in param_names:
        if n not in registry.params:
            raise KeyError(f"cannot checkpoint unknown parameter {n!r}")
    entries = []
    blobs = []
    offset = 0
    for name in param_names:
        arr = registry.params[name].tensor.data.astype("<f4")
        entries.append({"name": name, "kind": "param",
                        "shape": list(arr.shape), "dtype": "<f4",
                        "offset": offset})
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    for name in sorted(registry.buffers):
        arr = registry.buffers[name].astype("<f4")
        entries.append({"name": name, "kind": "buffer",
                        "shape": list(arr.shape), "dtype": "<f4",
                        "offset": offset})
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    manifest = {"format": "gnnpeft-ckpt-v1", "meta": meta, "entries": entries}
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


_ENTRY_KEYS = ("name", "kind", "shape", "dtype", "offset")


def _entry_fields(e, path, i: int) -> tuple[str, str, tuple[int, ...], int]:
    """(name, kind, shape, offset) of manifest entry i, or a typed error."""
    if not isinstance(e, dict):
        raise CheckpointFormatError(f"{path}: manifest entry {i} is not an object")
    missing = [k for k in _ENTRY_KEYS if k not in e]
    if missing:
        raise CheckpointFormatError(f"{path}: manifest entry {i} lacks {missing}")
    if e["dtype"] != "<f4":
        raise CheckpointFormatError(f"{path}: unsupported dtype {e['dtype']!r}")
    name, kind, shape, offset = e["name"], e["kind"], e["shape"], e["offset"]
    if not (isinstance(name, str) and kind in ("param", "buffer")
            and isinstance(shape, list)
            and all(type(s) is int and s >= 0 for s in shape)
            and type(offset) is int and offset >= 0):
        raise CheckpointFormatError(
            f"{path}: manifest entry {i} has a malformed name, kind, shape or offset")
    return name, kind, tuple(shape), offset


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Read a checkpoint archive -> (meta, params, buffers), upcast to float64.

    A malformed manifest or payload raises :class:`CheckpointFormatError`
    naming the file."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointFormatError(f"{path}: bad manifest line ({exc})") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "gnnpeft-ckpt-v1":
        raise CheckpointFormatError(f"{path}: not a checkpoint archive")
    missing = [k for k in ("entries", "meta") if k not in manifest]
    if missing:
        raise CheckpointFormatError(f"{path}: manifest lacks {missing}")
    if not (isinstance(manifest["entries"], list) and isinstance(manifest["meta"], dict)):
        raise CheckpointFormatError(f"{path}: manifest entries or meta malformed")
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    for i, e in enumerate(manifest["entries"]):
        name, kind, shape, start = _entry_fields(e, path, i)
        nbytes = math.prod(shape) * 4
        raw = payload[start:start + nbytes]
        if len(raw) != nbytes:
            raise CheckpointFormatError(
                f"{path}: truncated payload for entry {name!r}")
        try:
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
        except (ValueError, OverflowError) as exc:  # e.g. an empty array with a huge extent
            raise CheckpointFormatError(
                f"{path}: entry {name!r} has unusable shape {list(shape)}") from exc
        target = params if kind == "param" else buffers
        if name in target:
            raise CheckpointFormatError(f"{path}: duplicate entry {name!r}")
        target[name] = arr
    return manifest["meta"], params, buffers


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
