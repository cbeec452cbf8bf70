"""Small shared helpers: atomic file writes, canonical float text, config hashing."""

import hashlib
import json
import os
import tempfile


def float_text(x):
    """Shortest round-trip decimal text for a float (repr of a Python float)."""
    return repr(float(x))


def config_hash(d):
    """Stable short hash of a configuration mapping (sorted-key canonical JSON)."""
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def atomic_write_bytes(path, buffers):
    """Write a list of bytes-like buffers, in order, to `path` via a temp
    file in the same directory plus rename."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for buf in buffers:
                fh.write(buf)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, [text.encode("utf-8")])
