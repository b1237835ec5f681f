"""Versioned JSON checkpoints: every parameter tensor by name, the latent
hyperparameters, and the training-domain map needed to rebuild one-hot
encodings. float64 values round-trip exactly through JSON repr."""

from __future__ import annotations

import json
import os
from typing import Iterable

import numpy as np

from .tensor import Tensor

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


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
    # written beside the target and renamed over it, so a crash mid-write
    # leaves any existing checkpoint intact
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    version = blob.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    return blob


def restore_params(blob: dict, params: Iterable[Tensor]) -> None:
    """Copy checkpointed values into freshly built parameters, by name."""
    stored = blob["params"]
    seen = set()
    for p in params:
        if p.name not in stored:
            raise CheckpointError(f"checkpoint is missing parameter {p.name!r}")
        entry = stored[p.name]
        shape = tuple(entry["shape"])
        if shape != p.shape:
            raise CheckpointError(
                f"parameter {p.name!r} shape mismatch: checkpoint {shape}, model {p.shape}"
            )
        p.data[...] = np.array(entry["data"], dtype=np.float64).reshape(shape)
        seen.add(p.name)
    missing = set(stored) - seen
    if missing:
        raise CheckpointError(f"checkpoint has unexpected parameters: {sorted(missing)}")
