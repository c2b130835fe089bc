"""Spans around qmajor's public functions, recorded from outside the library.

Each public function defined in a qmajor module is replaced, in every module
namespace that holds it (``qmajor.bipartite.hermitian_eig``,
``qmajor.protocol.corollary4_decompose``, ...), by a wrapper that records a
span: name, parent span, job, start, end and the exception type that escaped,
if any.  Spans stay in memory until the run ends.  Calls between private
helpers are not wrapped, so their time counts as the calling public
function's self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("numkernel", "majorize", "ensembles", "bipartite", "protocol", "cli")


def _dim(arg) -> int:
    shape = getattr(arg, "shape", None)
    return int(shape[0]) if shape else len(arg)


# Size bucket of one call, for the per-call p50 metrics.
SIZE_KEYS = {
    "numkernel.hermitian_eig": lambda a, k: f"n{_dim(a[0])}",
    "majorize.horn_orthogonal": lambda a, k: f"d{max(len(a[0]), len(a[1]))}",
    "bipartite.corollary4_decompose": lambda a, k: f"d{max(a[0].dim_a, a[0].dim_b)}",
    "protocol.enumerate_protocol": lambda a, k: f"d{a[1]}",
}

# Functions whose arguments are kept so their allocation peak can be replayed.
ALLOC_REPLAY = ("protocol.build_measurement",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, job, start, end, error, size]
        self.stack: list[int] = []
        self.job = -1
        self.replay: dict[str, list] = defaultdict(list)
        self.originals: dict[str, object] = {}
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ recording
    def _open(self, name: str, size: str | None) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, self.job, time.perf_counter(),
                           0.0, None, size])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, error: BaseException | None) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        if error is not None:
            span[5] = type(error).__name__
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name, None)
        error = None
        try:
            yield
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._close(sid, error)

    def _wrap(self, name: str, fn):
        size_key = SIZE_KEYS.get(name)
        keep_args = name in ALLOC_REPLAY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_args:
                self.replay[name].append((args, kwargs))
            sid = self._open(name, size_key(args, kwargs) if size_key else None)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(sid, error)

        return traced

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        """Wrap every public function of the loaded qmajor modules."""
        modules = [sys.modules[f"qmajor.{layer}"] for layer in LAYERS if f"qmajor.{layer}" in sys.modules]
        namespaces = modules + [sys.modules["qmajor"]]
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    # ------------------------------------------------------------ analysis
    def summary(self) -> dict:
        """calls, self seconds and per-bucket inclusive durations by span name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "sizes": defaultdict(list)})
        for i, span in enumerate(spans):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["self_s"] += (span[4] - span[3]) - child_time[i]
            if span[6] is not None:
                entry["sizes"][span[6]].append(span[4] - span[3])
        return out

    def jobs_raising(self, error_name: str) -> set:
        return {span[2] for span in self.spans if span[5] == error_name}

    def alloc_peak_mb(self, name: str) -> float:
        """Largest tracemalloc peak over replays of the recorded calls of ``name``."""
        fn = self.originals.get(name)
        peak = 0
        for args, kwargs in self.replay.get(name, ()):
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20

    def dump(self, path, meta: dict) -> None:
        fields = ["name", "parent", "job", "start", "end", "error", "size"]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, fh, separators=(",", ":"))


def p50_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0
