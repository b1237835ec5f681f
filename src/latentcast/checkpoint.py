"""Versioned JSON checkpoints: every parameter tensor by name, the latent
hyperparameters, and the training-domain map needed to rebuild one-hot
encodings. float64 values round-trip exactly through JSON repr.

`atomic_write` is the file writer of every output the package produces,
checkpoints included."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Iterable, Iterator, TextIO

import numpy as np

from .tensor import Tensor

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


@contextmanager
def atomic_write(path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces `path` only once the block
    completes. It is written beside the target and renamed over it, so a
    failure mid-write leaves any existing file intact and no temporary file
    behind. `newline` is passed to `open` (csv writers need "")."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _param_payload(params: Iterable[Tensor]) -> dict:
    payload = {}
    for p in params:
        if p.name is None:
            raise CheckpointError("cannot checkpoint an unnamed parameter")
        if p.name in payload:
            raise CheckpointError(f"duplicate parameter name {p.name!r}")
        payload[p.name] = {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
    return payload


def save_checkpoint(path, kind: str, config: dict, domain_map: list[list],
                    params: Iterable[Tensor], extra: dict | None = None) -> None:
    """domain_map rows are [domain_id, domain_name, train_index]."""
    blob = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config,
        "domain_map": domain_map,
        "params": _param_payload(params),
    }
    if extra:
        blob["extra"] = extra
    with atomic_write(path) as fh:
        json.dump(blob, fh, sort_keys=True)


# the JSON type of each top-level value; every key but "extra" is required
_BLOB_TYPES = {"format_version": int, "kind": str, "config": dict, "domain_map": list,
               "params": dict, "extra": dict}


def _check_blob(blob) -> None:
    """The blob's keys and types. Each parameter's data becomes an array, whose
    length `restore_params` checks against the model."""
    version = blob.get("format_version") if isinstance(blob, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    if not _BLOB_TYPES.keys() - {"extra"} <= blob.keys() <= _BLOB_TYPES.keys():
        raise CheckpointError(f"keys {sorted(blob)} are not {sorted(_BLOB_TYPES)}")
    for key, value in blob.items():
        if not isinstance(value, _BLOB_TYPES[key]):
            raise CheckpointError(f"{key} must be a JSON {_BLOB_TYPES[key].__name__}")
    for row in blob["domain_map"]:
        if not (isinstance(row, list) and [type(v) for v in row] == [int, str, int]):
            raise CheckpointError(f"domain_map row {row!r} is not [domain_id, name, index]")
    for name, entry in blob["params"].items():
        if not (isinstance(entry, dict) and entry.keys() == {"shape", "data"}
                and isinstance(entry["shape"], list)):
            raise CheckpointError(f"parameter {name!r} is not {{shape: [int], data: [number]}}")
        # a text or nested item raises here; None becomes NaN
        entry["data"] = np.array(entry["data"], dtype=np.float64)
        if not np.isfinite(entry["data"]).all():
            raise CheckpointError(f"parameter {name!r} holds a non-finite value")


def load_checkpoint(path) -> dict:
    """The checkpoint at `path`, its keys and types checked; any fault is a
    CheckpointError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        _check_blob(blob)
    except (OSError, TypeError, ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is CheckpointError
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    return blob


def restore_params(blob: dict, params: Iterable[Tensor], path, domain_map: list[list]) -> None:
    """Copy checkpointed values into freshly built parameters, by name: the
    checkpoint must hold exactly these, in their shapes, built on `domain_map`."""
    if blob["domain_map"] != domain_map:
        raise CheckpointError(f"checkpoint {path} was built on a different domain split; "
                              "check data, seed, and split fractions")
    params, stored = list(params), blob["params"]
    if stored.keys() != {p.name for p in params}:
        raise CheckpointError(f"checkpoint {path}: parameters differ from the model's in "
                              f"{sorted(stored.keys() ^ {p.name for p in params})}")
    for p in params:
        shape, data = tuple(stored[p.name]["shape"]), stored[p.name]["data"]
        if shape != p.shape or data.shape != (p.size,):
            raise CheckpointError(f"checkpoint {path}: parameter {p.name!r} has shape {shape} "
                                  f"and {data.size} values; the model's has shape {p.shape}")
        p.data[...] = data.reshape(shape)
