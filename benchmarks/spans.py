"""In-memory span tracer that wraps rml_lab's functions from outside.

``Tracer.install`` replaces every public function of the traced modules,
and the public methods of the classes they define, with a wrapper that
records a span: name, start, end, parent span and the operation it belongs
to. A function is wrapped in each namespace its callers look it up in: a
function imported by name into another module is wrapped there too, and so
is a function stored in a module-level dict such as ``cli.COMMANDS``. All
wrappers of one function record the same span name, ``<home module>.<name>``.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from dataclasses import asdict, dataclass, replace
from time import perf_counter

MODULES = ("trainer", "netcore", "augment", "rectify", "protobank", "metrics", "data", "cli")

# private helpers that mark the in-run eval phase of run_rml
PRIVATE = {"trainer": ("_pair_tv", "_measure_pseudo_acc")}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in Tracer.spans, -1 at top level
    op: str          # the benchmark operation the span belongs to
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _home(obj, package: str) -> str | None:
    """Short home-module name of a function defined in ``package``, else None."""
    mod = getattr(obj, "__module__", None) or ""
    if inspect.isfunction(obj) and mod.startswith(package + "."):
        return mod[len(package) + 1:]
    return None


class Tracer:
    """Records spans of wrapped calls; ``hooks`` map a span name to a function
    ``(args, kwargs, result) -> dict`` whose result is stored on the span.
    Hooks run with tracing paused, so the calls they make record no spans."""

    def __init__(self, hooks: dict | None = None):
        self.spans: list[Span] = []
        self.op = "setup"
        self.hooks = hooks or {}
        self._stack: list[int] = []
        self._paused = 0
        self._undo: list = []

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = Span(name, perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else -1, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                with tracer.paused():
                    span.info = hook(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "rml_lab") -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in list(vars(mod).items()):
                home = _home(obj, package)
                if home and (not attr.startswith("_") or attr in PRIVATE.get(home, ())):
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, self._wrap(f"{home}.{obj.__name__}", obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        home = _home(val, package)
                        if home:
                            self._undo.append((dict.__setitem__, obj, key, val))
                            obj[key] = self._wrap(f"{home}.{val.__name__}", val)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not mname.startswith("_"):
                            self._undo.append((setattr, obj, mname, meth))
                            setattr(obj, mname,
                                    self._wrap(f"{short}.{obj.__name__}.{mname}", meth))

    def uninstall(self) -> None:
        while self._undo:
            put, target, key, original = self._undo.pop()
            put(target, key, original)

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True, default=str) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - covered(children.get(i, ()), span.start, span.end)
            for i, span in enumerate(spans)]


def without_op(spans: list[Span], op: str) -> list[Span]:
    """The spans not recorded during operation ``op``, with parents renumbered.

    Spans of one operation form whole subtrees, so no kept span loses a
    parent that it had."""
    keep = [i for i, s in enumerate(spans) if s.op != op]
    new = {old: j for j, old in enumerate(keep)}
    return [replace(spans[i], parent=new.get(spans[i].parent, -1)) for i in keep]


class SpanIndex:
    """Queries over a list of spans: by name, by ancestor, self times."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span.name, []).append(i)

    def named(self, *names) -> list[int]:
        return sorted(i for n in names for i in self.by_name.get(n, ()))

    def under(self, i: int, names) -> bool:
        """True when some ancestor of span ``i`` has one of ``names``."""
        p = self.spans[i].parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def total_s(self, idx) -> float:
        return sum(self.spans[i].duration for i in idx)

    def mean_s(self, idx) -> float:
        return self.total_s(idx) / len(idx) if idx else 0.0

    def info_sum(self, idx, key) -> float:
        return sum((self.spans[i].info or {}).get(key, 0) for i in idx)
