"""Small shared helpers: integer, real and array argument checks, atomic file
writes, canonical float text, config hashing, and the one CSV table format.

Every CSV artifact (coefficient tables, sampled paths, codebooks) is written
by :func:`csv_table_text` and read by :func:`read_csv_table`.  A table is
``#`` comment lines carrying ``key=value`` metadata tokens, one header row of
column names, then one row per grid point or index with shortest round-trip
floats, so a table reads back exactly.  Whitespace and ``%`` in a metadata
value are percent-escaped (UTF-8 bytes), so every value reads back whole.
"""

import hashlib
import itertools
import json
import math
import numbers
import os
import re
import tempfile
from urllib.parse import quote, unquote

import numpy as np

from .errors import BadParameter


def check_int(value, name, minimum=None):
    """``value`` as an int: an int or numpy integer, not a bool, and at
    least ``minimum`` when one is given; anything else (a float, NaN, None)
    is a BadParameter rather than a silent truncation."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise BadParameter(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_instance(value, cls, name):
    """``value`` when it is a ``cls``, else BadParameter: the check of an
    object argument (a coefficient series, a generating function, an
    expansion, a model or a batch), so that a wrong object fails at the
    entry point rather than deep inside with an AttributeError."""
    if not isinstance(value, cls):
        raise BadParameter(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def check_real(value, name):
    """``value`` as a float when it is a real number (a Python or numpy real
    scalar, or a 0-d array of one), else BadParameter: no string is parsed
    and no complex value loses its imaginary part."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if not isinstance(value, numbers.Real):
        raise BadParameter(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_positive(value, name):
    """``value`` as a float when it is a finite positive real number, else
    BadParameter: the check of a horizon, a rate or a variance."""
    x = check_real(value, name)
    if not (0.0 < x < math.inf):
        raise BadParameter(f"{name} must be finite and positive, got {value!r}")
    return x


def check_gen_ou(theta, alpha, mu, sigma, sigma0):
    """The generalized OU parameters as floats: theta and sigma finite and
    positive, sigma0 finite and nonnegative, alpha and mu finite."""
    alpha, mu = check_real(alpha, "alpha"), check_real(mu, "mu")
    sigma0 = check_real(sigma0, "sigma0")
    if not (math.isfinite(alpha) and math.isfinite(mu) and 0.0 <= sigma0 < math.inf):
        raise BadParameter("alpha and mu must be finite, sigma0 finite and nonnegative")
    return check_positive(theta, "theta"), alpha, mu, check_positive(sigma, "sigma"), sigma0


def real_array(value, name, ndim=1, min_size=1):
    """``value`` as a contiguous float array when it holds real numbers
    (integer or floating dtype) in ``ndim`` dimensions and at least
    ``min_size`` entries, else BadParameter: the check of a grid, a weight
    vector or a table of values.  No string is parsed and no complex value
    loses its imaginary part."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim or arr.size < min_size:
        size = "nonempty " if min_size else ""
        raise BadParameter(f"{name} must be a {size}{ndim}-D array of real numbers")
    return np.ascontiguousarray(arr, dtype=float)


def float_text(x):
    """Shortest round-trip decimal text for a float (repr of a Python float)."""
    return repr(float(x))


def _meta_token(token):
    """A metadata token's text: a string as it is, a (key, value) pair as
    key=value with whitespace and % in the value percent-escaped."""
    if isinstance(token, str):
        return token
    key, value = token
    return f"{key}=" + re.sub(r"[\s%]", lambda c: quote(c.group()), str(value))


def csv_table_text(head, names, columns):
    """The CSV text of a table: ``# `` plus each line of ``head``, the
    header row ``names``, then one row per index.

    A ``head`` line is a string, written as it is, or a sequence of tokens
    joined by spaces: a string token as it is, a (key, value) pair as
    ``key=value`` with the value escaped for :func:`read_csv_table`.
    ``columns`` is a sequence of arrays of equal length along their last
    axis: a 1-D array is one column, each row of a 2-D array one more.
    Values are written as Python ``repr``: shortest round-trip text for
    floats, plain digits for integer arrays.  Each row is converted and
    joined on its own, so no list of the whole table's Python floats is
    ever built.
    """
    blocks = [np.atleast_2d(c) for c in columns]
    lines = [f"# {h if isinstance(h, str) else ' '.join(map(_meta_token, h))}\n" for h in head]
    lines.append(",".join(names) + "\n")
    for j in range(blocks[0].shape[1]):
        row = itertools.chain.from_iterable(b[:, j].tolist() for b in blocks)
        lines.append(",".join(map(repr, row)) + "\n")
    return "".join(lines)


def read_csv_table(path, meta_types):
    """The metadata and columns of the CSV table at ``path``.

    ``meta_types`` maps each metadata key to read to its type; a ``#`` line's
    ``key=value`` tokens with other keys are ignored, a later token wins, and
    percent escapes in a value are decoded.
    The first other nonblank line is the header row and fixes the width;
    every row after it must hold that many floats.  Returns ``(meta,
    data)`` with ``data`` of shape (width, rows), one contiguous row per
    column.  A malformed line raises ``BadParameter("<path>: line N: ...")``.
    """
    meta = {}
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    for key, sep, value in (tok.partition("=") for tok in line[1:].split()):
                        if sep and key in meta_types:
                            meta[key] = meta_types[key](unquote(value))
                    continue
                fields = line.split(",")
                if width is None:
                    width = len(fields)
                    continue
                if len(fields) != width:
                    raise ValueError(f"{len(fields)} fields, expected {width}")
                rows.append(np.fromiter(map(float, fields), float, count=width))
            except ValueError as exc:
                raise BadParameter(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise BadParameter(f"{path}: no data rows")
    return meta, np.column_stack(rows)


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
