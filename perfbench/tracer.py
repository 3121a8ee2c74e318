"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps every public function and public method of the
fraclab layer modules, and rebinds each wrapped function wherever a module
imported it, so calls between layers are recorded too.  A span is
(id, parent, layer, name, start, end) in seconds of ``time.perf_counter``.
Counters are taken from return values at the same boundaries.  Nothing is
recorded off the main thread: traced runs use one worker thread.

Nothing in ``src/`` knows about this; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

from fraclab.embeddings import REJECTED

LAYERS = ("expressions", "geometry", "exponents", "modular", "embeddings", "solver", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, layer, name, start, end]
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)  # "layer.name" -> [seconds]
        self.peak_alloc = 0  # bytes, max over traced seminorm calls
        self._stack = []
        self._undo = []
        self._main = threading.get_ident()

    # -- recording -------------------------------------------------------

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        measure_alloc = key == "modular.gagliardo_seminorm"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [sid, parent, layer, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(sid)
            if key == "geometry.map_blocks":
                args = (args[0], self._block_fn(args[1]), *args[2:])
            started_alloc = measure_alloc and not tracemalloc.is_tracing()
            if started_alloc:
                tracemalloc.start()
            span[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                if started_alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self._stack.pop()
            self.durations[key].append(span[5] - span[4])
            self._count(key, out)
            return out

        return traced

    def _block_fn(self, fn):
        """Span the block function under the layer that passed it in, so a
        solver or modular kernel is not billed to geometry."""
        layer = "geometry"
        for sid in reversed(self._stack):
            if self.spans[sid][2] != "geometry":
                layer = self.spans[sid][2]
                break
        return self._wrap(layer, "block_fn", fn)

    def _count(self, key, out):
        if key == "modular.gagliardo_seminorm":
            self.counts["modular.evals"] += out.iterations
        elif key == "solver.minimize":
            self.counts["solver.iterations"] += out.iterations
        elif key == "embeddings.sharpness_sweep":
            self.counts["embeddings.rejected_rows"] += sum(r.status == REJECTED for r in out)

    # -- patching --------------------------------------------------------

    def install(self):
        import fraclab

        mods = {layer: sys.modules[f"fraclab.{layer}"] for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._set(obj, mname, self._wrap(layer, f"{name}.{mname}", meth))
        # rebind every module-level reference, so cross-layer calls are traced
        for mod in [fraclab, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, name, wrapper)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reports ---------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer, each span's duration minus its children's."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for sid, _, layer, _, start, end in self.spans:
            out[layer] += (end - start) - child[sid]
        return out
