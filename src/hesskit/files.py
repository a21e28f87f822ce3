"""The writer of the toolkit's reports, logs, manifests, tables and images, and the
owner of their formats: JSON with sorted keys, CSV of shortest-repr floats and binary
netpbm, each written in place by ``overwrite``."""

from __future__ import annotations

import json
import os
import re

import numpy as np


def overwrite(path: str, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) over the file's old bytes, then cut it to length.

    A rewrite that opens with truncation makes ext4 flush the file on close
    (``auto_da_alloc``), which stalls a process that rewrites its outputs
    many times a second; writing in place leaves writeback to the kernel.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        fh.truncate()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path: str, payload) -> None:
    """An indented JSON document with sorted keys; numpy values become plain JSON."""
    overwrite(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str, records) -> None:
    """One JSON object with sorted keys per line."""
    overwrite(path, "".join(json.dumps(_jsonable(r), sort_keys=True) + "\n" for r in records))


def write_csv(path: str, rows, header: str = "") -> None:
    """``header``, then rows of floats as shortest-repr decimals, which read back exactly."""
    overwrite(path, header + "".join(",".join(map(repr, map(float, row))) + "\n" for row in rows))


def write_netpbm(path: str, pixels: np.ndarray) -> None:
    """Binary netpbm of uint8 ``pixels``: P5 for (rows, cols), P6 for (rows, cols, 3)."""
    magic = "P5" if pixels.ndim == 2 else "P6"
    header = f"{magic}\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    overwrite(path, header + pixels.tobytes())


# the numbered or optional files a writer rewrites as a set
_SET_MEMBERS = re.compile(r"hessian_\d{5,}\.(csv|pgm)|sample_\d{6,}\.ppm"
                          r"|discriminator\.(npz|manifest\.json)")


def prune(directory: str, written) -> None:
    """Remove the set members in ``directory`` that are not in ``written``: what an
    earlier run left there."""
    keep = {os.path.basename(p) for p in written}
    for name in os.listdir(directory):
        if name not in keep and _SET_MEMBERS.fullmatch(name):
            os.remove(os.path.join(directory, name))
