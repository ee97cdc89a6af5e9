"""Timing spans around the package's public functions, for the traced run.

`Tracer.patch` swaps a module attribute for a wrapper that times each call.
Callers that look the name up at call time (``linalg.invert(...)`` inside
ngm, a module-level ``converged_run(...)`` inside ``estimate.sweep``) then go
through the wrapper, so spans nest the way the package's own calls nest.
Spans are aggregated in memory by (phase, name, model): call count, total
time, self time (total minus the time of timed children) and an optional
work count. The untraced run installs nothing.
"""
from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.phase = "warm"
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(float)
        self._stack = []          # [name, model, child seconds]
        self._restore = []

    def _model(self, explicit):
        if explicit is not None:
            return explicit
        return self._stack[-1][1] if self._stack else None

    def call(self, name, model, fn, *args, work=None, model_of_result=None, **kwargs):
        """Run fn inside a span; returns its result."""
        frame = [name, self._model(model), 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += elapsed
        if model_of_result is not None:
            frame[1] = model_of_result(result)
        key = (self.phase, name, frame[1])
        self.calls[key] += 1
        self.total[key] += elapsed
        self.self_time[key] += elapsed - frame[2]
        if work is not None:
            self.work[key] += work(args, kwargs)
        return result

    def record(self, name, model, seconds, calls=1):
        """Add a span measured by the caller."""
        key = (self.phase, name, model)
        self.calls[key] += calls
        self.total[key] += seconds
        self.self_time[key] += seconds

    def patch(self, module, attr, name, model_from="inherit", work=None):
        """Time every call of module.attr under `name`.

        model_from: "arg0" keys the span by the PetriModel passed first,
        "result" by the model returned, "inherit" by the enclosing span's.
        """
        original = getattr(module, attr)
        tracer = self

        if model_from == "arg0":
            def wrapper(*args, **kwargs):
                return tracer.call(name, args[0].name, original, *args,
                                   work=work, **kwargs)
        elif model_from == "result":
            def wrapper(*args, **kwargs):
                return tracer.call(name, None, original, *args, work=work,
                                   model_of_result=lambda m: m.name, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, None, original, *args, work=work, **kwargs)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unpatch(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # ---- aggregates

    def _sum(self, table, name, phase, model):
        return sum(v for (ph, nm, md), v in table.items()
                   if nm == name and ph == phase and (model is None or md == model))

    def calls_of(self, name, phase, model=None):
        return self._sum(self.calls, name, phase, model)

    def seconds_of(self, name, phase, model=None, own=False):
        return self._sum(self.self_time if own else self.total, name, phase, model)

    def work_of(self, name, phase, model=None):
        return self._sum(self.work, name, phase, model)

    def per_call(self, name, scale, phase, model=None, own=False):
        """Mean time per call in the given unit scale; 0 when never called.
        A model of None sums over all models."""
        n = self.calls_of(name, phase, model)
        return scale * self.seconds_of(name, phase, model, own) / n if n else 0.0
