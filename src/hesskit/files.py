"""The in-place writer of the toolkit's reports, logs, manifests, tables and images."""

from __future__ import annotations

import os


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
