"""Environment record stored in every result file."""

import ctypes
import glob
import hashlib
import importlib.util
import os
import platform
import subprocess


def _git_commit(root):
    """HEAD of a git checkout, read from its files; None outside git."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(gitdir, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root):
    """sha256 over the package sources, which identifies a non-git checkout."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "specgauss", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _cache_size(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it is not found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def record(root):
    import numpy
    import scipy

    return {
        "commit": _git_commit(root),
        "source_sha256_16": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l2_cache_bytes": _cache_size("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _cache_size("LEVEL3_CACHE_SIZE"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }
