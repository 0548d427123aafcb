"""Atomic file output: a file is replaced whole or left as it was."""

import os
import tempfile


def atomic_write(path, data: str | bytes):
    """Write `data` (text as UTF-8) to a temporary file beside `path`, then
    rename it over `path`; on any failure the temporary file is removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
