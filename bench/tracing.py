"""Spans around csitrack's public functions, installed from outside.

Each target is named by its defining module (``aod.estimate_paths`` is
``csitrack.aod.estimate_paths``). Installing it rebinds that function
everywhere a csitrack module holds it, which is the name its caller looks it
up by (``csitrack.tracker.estimate_paths``, ``csitrack.aod.steering_matrix``,
...). Methods are rebound on their class. A target that no longer exists is
reported absent instead of failing the run.

Install before any ``Tracker`` exists: it binds its row builder at
construction.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Sized

#: (target, counter): counter maps a call's arguments to a work count.
TARGETS = (
    ("simulator.simulate_trajectory", None),
    ("core.steering_matrix", None),
    ("io.read_trace", None),
    ("io.write_trace", None),
    ("io.TraceFile.__post_init__", None),
    ("io.records_by_ap", None),
    ("io.pair_streams", None),
    ("io.write_trajectory", None),
    ("aod.estimate_paths", lambda args, kwargs: len(args[0]) if isinstance(args[0], Sized) else 0),
    ("aod.concat_window", None),
    ("aod.noise_subspace", None),
    ("tracker.Tracker.ingest", None),
    ("tracker.Tracker.trajectory", None),
    ("tracker.path_continuity", None),
    ("displacement.path_weights", None),
    ("displacement.displacement_rows", None),
    ("displacement.same_clock_rows", None),
    ("displacement.estimate_displacement", None),
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "items")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0


class Tracer:
    """Records spans (id, parent id, target, start, end) while active, in
    process CPU time like every other time of the benchmark."""

    def __init__(self):
        self.active = False
        self.stats = {}
        self.spans = []
        self.absent = []
        self.bindings = {}
        self._stack = []
        self._restore = []

    def install(self):
        for target, counter in TARGETS:
            module_name, _, attr = target.partition(".")
            module = sys.modules.get(f"csitrack.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            self.stats[target] = Stat()
            wrapper = self._wrap(target, original, counter)
            if owner_name:
                self._rebind(target, owner, method, original, wrapper, f"{owner.__module__}.{attr}")
                continue
            for name, mod in list(sys.modules.items()):
                if name == "csitrack" or name.startswith("csitrack."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(target, mod, key, original, wrapper, f"{name}.{key}")

    def _rebind(self, target, owner, key, original, wrapper, where):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))
        self.bindings.setdefault(target, []).append(where)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def start(self):
        for stat in self.stats.values():
            stat.reset()
        self.spans.clear()
        self.active = True

    def stop(self):
        self.active = False

    def _wrap(self, target, fn, counter):
        tracer = self
        stat_of = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            span_id = len(spans)
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                elapsed = end - start
                stat = stat_of[target]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if counter is not None:
                    stat.items += counter(args, kwargs)
                if stack:
                    stack[-1][0] += elapsed
                spans[span_id] = (span_id, parent, target, start, end)

        return wrapper

    # -- reading ---------------------------------------------------------------

    def calls(self, target) -> int:
        stat = self.stats.get(target)
        return stat.calls if stat else 0

    def total(self, target) -> float:
        stat = self.stats.get(target)
        return stat.total if stat else 0.0

    def self_time(self, target) -> float:
        stat = self.stats.get(target)
        return stat.self_time if stat else 0.0

    def items(self, target) -> int:
        stat = self.stats.get(target)
        return stat.items if stat else 0

    def layer_self_times(self) -> dict:
        """Seconds of self time per layer (the target's module)."""
        layers = {}
        for target, stat in self.stats.items():
            layer = target.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + stat.self_time
        return layers

    def dump(self, path):
        """Write the recorded spans as CSV, times relative to the first."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("id,parent,target,start_us,end_us\n")
            for span_id, parent, target, start, end in self.spans:
                handle.write(f"{span_id},{parent},{target},"
                             f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}\n")
