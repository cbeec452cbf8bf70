"""Span tracer for the traced benchmark run.

The tracer replaces public specgauss functions, at the module attribute each
caller resolves them through, with wrappers that record one span per call:
name, start, end, parent span and run id.  Patches are installed only around
the timed operations of a traced repetition and removed afterwards, so
untraced repetitions and the untimed output checks run the plain library.
Spans stay in memory; the worker writes them out once when it exits and
reduces them to self times (span duration minus the time its child spans
cover).
"""

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

# (module, attribute, span name).  A function imported by name into another
# module is patched there too, because that is the name its caller resolves.
TARGETS = (
    ("specgauss.cli", "main", "cli.main"),
    ("specgauss.cli", "fbm_coefficients", "fourier.fbm_coefficients"),
    ("specgauss.cli", "build_fbm", "expansion.build_fbm"),
    ("specgauss.cli", "build_generalized_ou", "expansion.build_generalized_ou"),
    ("specgauss.cli", "build_type_c", "expansion.build_type_c"),
    ("specgauss.cli", "sample_paths_fast", "expansion.sample_paths_fast"),
    ("specgauss.cli", "covariance_report", "validate.covariance_report"),
    ("specgauss.cli", "rate_probe", "validate.rate_probe"),
    ("specgauss.cli", "product_quantizer", "quantize.product_quantizer"),
    ("specgauss.expansion", "build_fbm", "expansion.build_fbm"),
    ("specgauss.expansion", "build_type_b", "expansion.build_type_b"),
    ("specgauss.expansion", "fbm_coefficients", "fourier.fbm_coefficients"),
    ("specgauss.expansion", "coeffs_quadrature", "fourier.coeffs_quadrature"),
    ("specgauss.expansion", "check_star", "gamma.check_star"),
    ("specgauss.fourier", "fbm_coefficients", "fourier.fbm_coefficients"),
    ("specgauss.validate", "fbm_coefficients", "fourier.fbm_coefficients"),
    ("specgauss.validate", "series_cov", "validate.series_cov"),
    ("specgauss.quantize", "kl_reduce", "quantize.kl_reduce"),
    ("specgauss.quantize", "allocate_levels", "quantize.allocate_levels"),
    ("specgauss.quantize", "distortion_mc", "quantize.distortion_mc"),
)

# PathBatch artifact methods, reported as the ``io`` layer
PATHBATCH_TARGETS = (
    ("to_csv_text", "io.to_csv_text"),
    ("to_binary_bytes", "io.to_binary_bytes"),
    ("from_csv", "io.from_csv"),
    ("from_binary", "io.from_binary"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    run_id: int


class Tracer:
    """Records spans; a parent is the innermost open span of the same thread."""

    def __init__(self):
        self.spans = []
        self.run_id = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        from specgauss.expansion import PathBatch

        saved = []
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn))
            for attr, name in PATHBATCH_TARGETS:
                raw = vars(PathBatch)[attr]
                saved.append((PathBatch, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(PathBatch, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(PathBatch, attr, self.wrap(name, raw))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id to its self time in seconds."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def root_names(spans):
    """Map span id to the name of its root span (the benchmark operation)."""
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        cur = s
        while cur.parent in by_id:
            cur = by_id[cur.parent]
        out[s.id] = cur.name
    return out
