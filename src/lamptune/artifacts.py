"""Crash-safe artifact files.

Every file a command writes goes first to a temporary file next to its
target, which is renamed over the target only once it is complete.  A
rename within one directory is atomic, so a failure mid-write leaves an
earlier file at that path as it was, and no partial file behind.
"""

from __future__ import annotations

import os

__all__ = ["write_atomic"]


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text or bytes) to ``path`` all at once or not at all."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
