"""Atomic, durable artifact writes: a reader sees the previous file or the new one, never a part."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a sibling temp file for writing; when the block ends, it replaces `path`.

    If the block raises, `path` keeps its previous content and the temp file
    is removed. The temp file sits in the same directory, so `os.replace`
    is an atomic rename on the same file system. The file is fsynced before
    the rename and its directory after it, so the new file survives a crash.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(document, path: str | Path, indent: int = 2, **dump_kwargs) -> None:
    """Write `document` as JSON through `atomic_write`, streamed as it is encoded."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=indent, **dump_kwargs)


__all__ = ["atomic_write", "write_json"]
