"""Per-layer tracing from outside the program.

The package's modules import functions from each other by name, so a call
such as ``propagate`` inside ``swaps`` is looked up in ``xxzswap.swaps``,
not in ``xxzswap.dynamics``. :meth:`Tracer.install` therefore replaces every
public function of the package in every namespace that binds it, the package
itself included, with one wrapper per function. The wrappers record calls,
time, self time (time minus the wrapped calls beneath) and the time of the
random draws beneath. The generator that ``seeding.stream`` returns is
wrapped in a proxy that times its draws.

Counters cover one job at a time: call :meth:`Tracer.reset` before a job and
:meth:`Tracer.metrics` after it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "swaps", "states", "dynamics", "seeding", "fidelity", "dots")
#: The generator methods the package draws with.
DRAW_METHODS = frozenset(("standard_normal", "random", "uniform"))

#: Spans whose time minus the draws beneath them is reported as ``arith_s``.
ARITH_KEYS = ("fidelity.average_fidelity_mc", "fidelity.state_ensemble_fidelity")
MC_KEY = "fidelity.average_fidelity_mc"


class _Span:
    __slots__ = ("key", "child_s")

    def __init__(self, key: str):
        self.key = key
        self.child_s = 0.0


class _GeneratorProxy:
    """Stands in for a ``numpy.random.Generator`` and times its draws."""

    def __init__(self, generator, tracer: "Tracer"):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if name in DRAW_METHODS:
            attr = self._tracer._timed_draw(attr)
            setattr(self, name, attr)  # later lookups skip __getattr__
        return attr


class Tracer:
    def __init__(self):
        self._stack: list[_Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.time_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.draw_below_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.draw_s = 0.0
        self.streams: set[tuple[int, int]] = set()

    # -- installation ---------------------------------------------------

    def install(self, package_name: str = "xxzswap") -> None:
        package = importlib.import_module(package_name)
        modules = [package] + [importlib.import_module(f"{package_name}.{m}") for m in MODULES]
        wrappers: dict[object, object] = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(package_name + ".")
                ):
                    continue
                if obj not in wrappers:
                    key = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(key, obj)
                self._patched.append((module, name, obj))
                setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, key: str, fn):
        if key == "seeding.stream":
            self._stream_signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(key)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            draws_before = self.draw_s
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if parent is not None:
                    parent.child_s += elapsed
                self.calls[key] += 1
                self.time_s[key] += elapsed
                self.self_s[key] += elapsed - span.child_s
                self.draw_below_s[key] += self.draw_s - draws_before
            return self._observe(key, args, kwargs, result)

        return wrapper

    def _timed_draw(self, method):
        @functools.wraps(method)
        def draw(*args, **kwargs):
            start = time.perf_counter()
            values = method(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.draw_s += elapsed
            if self._stack:
                self._stack[-1].child_s += elapsed
            self.counts["seeding.draw.calls"] += 1
            self.counts["seeding.draw.values"] += getattr(values, "size", 1)
            return values

        return draw

    def _observe(self, key: str, args, kwargs, result):
        if key == "seeding.stream":
            bound = self._stream_signature.bind(*args, **kwargs)
            self.streams.add((int(bound.arguments["seed"]), int(bound.arguments["index"])))
            if any(span.key == MC_KEY for span in self._stack):
                self.counts["fidelity.chunks"] += 1
            return _GeneratorProxy(result, self)
        if key == "swaps.verify_swap":
            self.counts["swaps.states_checked"] += result.states_checked
        elif key == MC_KEY:
            self.counts["fidelity.samples"] += result.samples
        return result

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every counter of the current job, by ``<module>.<function>.<quantity>``."""
        out: dict[str, float] = dict(self.counts)
        for key, calls in self.calls.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.time_s"] = self.time_s[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for key in ARITH_KEYS:
            if key in self.calls:
                out[f"{key}.arith_s"] = self.time_s[key] - self.draw_below_s[key]
        stream_calls = self.calls.get("seeding.stream", 0)
        out["seeding.stream.distinct"] = len(self.streams)
        out["seeding.stream.useful_ratio"] = (
            len(self.streams) / stream_calls if stream_calls else 0.0
        )
        out["seeding.draw.time_s"] = self.draw_s
        return out

