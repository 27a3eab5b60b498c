"""Spans around the public functions of every blochx module, installed from
outside the package.

Each public function of a layer module is replaced, at every module that
binds it by name, with a wrapper that records a span (name, start, end,
parent) in memory.  A layer's self time is the sum over its spans of the
span's duration minus the durations of its direct child spans.  Counters
are taken at the same boundaries: generator stack bytes built, serialized
bytes written, and collapse draws with the tracemalloc peak of each
``run_measurement`` call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from pathlib import Path

LAYERS = ("linalg", "generators", "bloch", "spin", "measurement", "composite",
          "correspondence", "serialize", "cli")


class Tracer:
    """Span recorder for one traced pass; ``install`` patches, ``uninstall``
    restores the original functions."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.stack_bytes = 0
        self.bytes_out = 0
        self.mc_samples = 0
        self.mc_peak_bytes = 0

    def install(self) -> None:
        import blochx
        modules = [importlib.import_module(f"blochx.{layer}") for layer in LAYERS]
        sites = [blochx, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self._wrap(layer, fn)
                for site in sites:
                    for bound, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, bound, traced)
                            self._patches.append((site, bound, fn))

    def uninstall(self) -> None:
        for site, bound, fn in reversed(self._patches):
            setattr(site, bound, fn)
        self._patches.clear()

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        is_sampler = name == "measurement.run_measurement"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            if is_sampler:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if is_sampler:
                    self.mc_peak_bytes += tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        if name == "generators.build_generators":
            self.stack_bytes += result.matrices.nbytes
        elif name == "serialize.dumps":
            # the generated_at timestamp is the one run-varying field
            stamp = args[0].get("generated_at", "") if isinstance(args[0], dict) else ""
            self.bytes_out += len(result.encode()) - len(str(stamp).encode())
        elif name == "measurement.run_measurement":
            self.mc_samples += result.samples

    def layer_stats(self) -> tuple[dict, dict]:
        """Per-layer span counts and self times in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += end - start - child[i]
        return calls, self_s

    def sampler_seconds(self) -> float:
        return sum(end - start for name, start, end, _ in self.spans
                   if name == "measurement.run_measurement")

    def write(self, path: Path) -> None:
        """Write the spans as JSON rows [name, start_s, end_s, parent_index]."""
        path.write_text(json.dumps([list(span) for span in self.spans]))
