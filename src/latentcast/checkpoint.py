"""Versioned JSON checkpoints: every parameter tensor by name, the latent
hyperparameters, and the training-domain map needed to rebuild one-hot
encodings. float64 values round-trip exactly through JSON repr.

`atomic_write` is the file writer of every output the package produces,
checkpoints included, and `csv_lines` the line encoder of every CSV of
numbers."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import repeat
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .tensor import Tensor

FORMAT_VERSION = 2
CSV_BLOCK_WINDOWS = 64   # windows whose CSV text a writer holds at once


class CheckpointError(ValueError):
    pass


@contextmanager
def atomic_write(path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces `path` only once the block
    completes. It is written beside the target, in its directory, which is
    made if missing, and renamed over it, so a failure mid-write leaves any
    existing file intact and no temporary file behind. `newline` is passed to
    `open` (csv writers need "")."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# writerow returns what `write` returns: here the row's text
_ROW_WRITER = csv.writer(SimpleNamespace(write=lambda line: line))


def csv_row(fields: Iterable) -> str:
    """`fields` as csv.writer writes them as one row, without the line end:
    csv's own rules decide which are quoted."""
    return _ROW_WRITER.writerow(fields)[:-2]


def repr_rows(values: np.ndarray) -> Iterator[tuple[str, ...]]:
    """The rows of a 2-D array as the reprs of their values (csv.writer's
    text for a float), formatted by one `map` over the block."""
    n, width = values.shape
    if not width:
        return repeat((), n)
    return zip(*[map(repr, values.ravel().tolist())] * width)


def csv_lines(rows: Iterable[Sequence[str]], end: str = "\r\n") -> str:
    """One CSV line per row, its fields joined by commas. The fields must
    already be csv.writer's text: `csv_row` of text fields, `repr_rows` of
    numbers."""
    return "".join([",".join(row) + end for row in rows])


def save_checkpoint(path, kind: str, config: dict, domain_map: list[list],
                    params: Iterable[Tensor], extra: dict | None = None) -> None:
    """domain_map rows are [domain_id, domain_name, train_index].

    The file holds the text of `json.dumps(blob, sort_keys=True)`, written
    one top-level value, and one parameter, at a time, so that a
    parameter's values become a list only while it is written."""
    named = {}
    for p in params:
        if p.name is None:
            raise CheckpointError("cannot checkpoint an unnamed parameter")
        if p.name in named:
            raise CheckpointError(f"duplicate parameter name {p.name!r}")
        named[p.name] = p
    blob = {"format_version": FORMAT_VERSION, "kind": kind, "config": config,
            "domain_map": domain_map}
    if extra:
        blob["extra"] = extra
    with atomic_write(path) as fh:
        fh.write("{")
        for i, key in enumerate(sorted([*blob, "params"])):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            if key != "params":
                fh.write(json.dumps(blob[key], sort_keys=True))
                continue
            fh.write("{")
            for j, name in enumerate(sorted(named)):
                entry = {"shape": list(named[name].shape),
                         "data": named[name].data.reshape(-1).tolist()}
                fh.write(f"{', ' if j else ''}{json.dumps(name)}: "
                         f"{json.dumps(entry, sort_keys=True)}")
            fh.write("}")
        fh.write("}")


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
