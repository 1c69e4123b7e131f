"""Run-time instrumentation of the turbomp package, attached from outside it.

Two pieces, both installed by patching module attributes and undone by
``uninstall``:

* ``Probe`` sits at the harness boundary of one trial.  It times every
  ``run_turbo_mp`` call (one received frame) and copies out what the output
  checks need: the true responses and the estimates of the active devices,
  the energy the estimate puts on the inactive ones, the observation and the
  pilot row selections.  The copy rides back in the trial's record under
  ``"_bench"``, so it also works when the trial ran in a forked pool worker;
  keeping it to the active devices keeps the copy small.
* ``Tracer`` records one span per call into a layer: every callable that one
  turbomp module imports from another, plus the constructor and the public
  methods of every layer class.  A span is (name, start, end, parent).  A
  layer's time is its self time: the span's duration minus the spans it
  caused.  ``logodds`` is not wrapped, so its time counts to its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from checks import expanded_energy

LAYERS = ("activity", "channel", "denoiser", "em", "engine", "harness", "lmmse", "metrics", "pilots")
FRAME_SPAN = "engine.run_turbo_mp"
ADJOINT_OPS = ("PilotCodebook.apply_A_adjoint", "PilotCodebook.apply_B_adjoint")
PILOT_OPS = ("PilotCodebook.apply_A", "PilotCodebook.apply_B") + ADJOINT_OPS


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    head, _, tail = module.rpartition(".")
    return tail if head == "turbomp" and tail in LAYERS else None


@dataclass
class Capture:
    """What one trial hands to the output checks, copied at the harness boundary."""

    trial_s: float
    frame_s: float
    activity: np.ndarray  # (K,) true activity
    G_active: np.ndarray  # (a, N, M) true responses of the active devices
    H_active: np.ndarray  # (a, Q, M) estimated sub-block means of the active devices
    C_active: np.ndarray  # (a, Q, M) estimated sub-block slopes of the active devices
    inactive_energy: float  # energy the estimate puts on the inactive devices
    lambda_post: np.ndarray  # (K,) posterior activity
    decisions: np.ndarray  # (K,) the engine's activity decisions
    Y: np.ndarray  # (TN, M) observation
    selections: np.ndarray  # (Q, TN/Q) pilot DFT rows
    pilot_scale: float
    spans: list | None = None  # this trial's spans, parents rebased to the list


class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Probe:
    """Times frames and captures check inputs at the boundary of each trial."""

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self._patches = _Patches()

    def install(self) -> None:
        harness = importlib.import_module("turbomp.harness")
        run_trial = harness.run_single_trial
        run_frame = harness.run_turbo_mp
        draw_channel = harness.sample_channel
        tracer = self.tracer
        seen = {}

        def sample_channel(*args, **kwargs):
            seen["realization"] = out = draw_channel(*args, **kwargs)
            return out

        def run_turbo_mp(Y, codebook, *args, **kwargs):
            start = perf_counter()
            out = run_frame(Y, codebook, *args, **kwargs)
            seen["frame_s"] = perf_counter() - start
            seen["Y"], seen["codebook"], seen["result"] = Y, codebook, out
            return out

        def run_single_trial(*args, **kwargs):
            seen.clear()
            first = len(tracer.spans) if tracer is not None else 0
            start = perf_counter()
            record = run_trial(*args, **kwargs)
            trial_s = perf_counter() - start
            real, result, cb = seen["realization"], seen["result"], seen["codebook"]
            active = np.flatnonzero(real.activity)
            h = result.H.reshape(cb.K, cb.Q, -1)[active]
            c = result.C.reshape(cb.K, cb.Q, -1)[active]
            record["_bench"] = Capture(
                trial_s=trial_s,
                frame_s=seen["frame_s"],
                activity=np.asarray(real.activity),
                G_active=real.G[active],
                H_active=h,
                C_active=c,
                inactive_energy=expanded_energy(result.H, result.C, cb.N, cb.Q)
                - expanded_energy(h, c, cb.N, cb.Q),
                lambda_post=result.lambda_D_post,
                decisions=result.activity,
                Y=seen["Y"],
                selections=cb.selections,
                pilot_scale=cb.scale,
                spans=tracer.take(first) if tracer is not None else None,
            )
            return record

        self._patches.set(harness, "sample_channel", sample_channel)
        self._patches.set(harness, "run_turbo_mp", run_turbo_mp)
        self._patches.set(harness, "run_single_trial", run_single_trial)

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Span recorder wrapped around every call into a turbomp layer."""

    def __init__(self):
        self.spans: list = []
        self.pools_started = 0
        self._stack: list = []
        self._patches = _Patches()

    def take(self, first: int) -> list:
        """Remove and return the spans from index ``first`` on, parents rebased."""
        out = [
            (name, t0, t1, parent - first if parent >= first else -1)
            for name, t0, t1, parent in self.spans[first:]
        ]
        del self.spans[first:]
        return out

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def install(self) -> None:
        package = importlib.import_module("turbomp")
        modules = {name: importlib.import_module(f"turbomp.{name}") for name in LAYERS}
        wrapped = {}

        def wrapper(fn, name):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)
            return wrapped[id(fn)]

        # classes: constructor and public methods, patched on the class itself
        for layer, module in modules.items():
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                if issubclass(cls, BaseException):
                    continue
                for attr, member in list(vars(cls).items()):
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        self._patches.set(cls, attr, wrapper(member, f"{layer}.{cls.__name__}.{attr}"))

        # functions one module imports from another layer
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                layer = _layer_of(obj)
                if inspect.isfunction(obj) and layer and obj.__module__ != module.__name__:
                    self._patches.set(module, attr, wrapper(obj, f"{layer}.{obj.__name__}"))

        harness = modules["harness"]
        base = harness.ProcessPoolExecutor
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pools_started += 1
                super().__init__(*args, **kwargs)

        self._patches.set(harness, "ProcessPoolExecutor", CountingPool)

    def uninstall(self) -> None:
        self._patches.undo()


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of the spans it caused.

    Spans are (name, start, end, parent) with parents listed before children,
    as ``Tracer`` records them.
    """
    out = [t1 - t0 for _, t0, t1, _ in spans]
    for _, t0, t1, parent in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


@dataclass
class LayerTotals:
    """Self time (s) and call counts by layer, split into in-frame and per-trial work."""

    frame_self: dict
    frame_calls: dict
    trial_self: dict
    adjoint_s: float = 0.0
    pilot_ops: int = 0
    frame_span_s: float = 0.0

    @classmethod
    def empty(cls) -> "LayerTotals":
        return cls(frame_self={}, frame_calls={}, trial_self={})

    def add(self, spans: list) -> None:
        in_frame = [False] * len(spans)
        for i, (name, t0, t1, parent) in enumerate(spans):
            in_frame[i] = name == FRAME_SPAN or (parent >= 0 and in_frame[parent])
        for i, ((name, t0, t1, parent), self_s) in enumerate(zip(spans, self_times(spans))):
            layer, _, member = name.partition(".")
            if name == FRAME_SPAN:
                self.frame_span_s += t1 - t0
            if not in_frame[i]:
                self.trial_self[layer] = self.trial_self.get(layer, 0.0) + self_s
                continue
            self.frame_self[layer] = self.frame_self.get(layer, 0.0) + self_s
            self.frame_calls[layer] = self.frame_calls.get(layer, 0) + 1
            if member in ADJOINT_OPS:
                self.adjoint_s += self_s
            parent_layer = spans[parent][0].partition(".")[0] if parent >= 0 else None
            if member in PILOT_OPS and parent_layer != "pilots":
                self.pilot_ops += 1
