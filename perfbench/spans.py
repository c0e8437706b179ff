"""In-memory span recorder for the benchmark's traced run.

The recorder wraps public functions of the `sdabe` package at every place
they are looked up (the defining module and each module that imported the
name), records one span per call and restores the originals on exit.  Spans
stay in memory and are written as JSONL once the run ends; per-layer
statistics are computed from them afterwards.

Nothing here is imported by the package itself: the program under test is
unchanged, and an untraced run never installs a wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import wraps
from importlib import import_module

class TraceError(RuntimeError):
    """A layer the benchmark expects is missing or recorded no calls."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    file: str | None
    frame: int | None
    phase: str
    error: str | None = None
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module, attribute path, and
    an optional function turning the call's result into span attributes."""

    name: str
    module: str
    qualname: str
    observe: object = None


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [
        (sp.end - sp.start) - covered_length(children.get(i, []), sp.start, sp.end)
        for i, sp in enumerate(spans)
    ]


def _frame_id(args) -> int | None:
    a = args[0] if args else None
    idx = getattr(a, "index", None)
    return idx if isinstance(idx, int) and hasattr(a, "samples") else None


class Recorder:
    """Collects spans from the wrappers it hands out.  Single-threaded: the
    benchmark drives the program from one closed-loop caller."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.file: str | None = None
        self.phase = "setup"

    def wrap(self, name: str, fn, observe=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = _frame_id(args)
            if frame is None and parent is not None:
                frame = self.spans[parent].frame
            span = Span(name, self.clock(), 0.0, parent, self.file, frame, self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = str(getattr(exc, "reason", type(exc).__name__))
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if observe is not None:
                span.attrs = observe(result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (sp, self_s) in enumerate(zip(self.spans, self_times(self.spans))):
                doc = asdict(sp)
                doc["id"] = i
                doc["self"] = self_s
                fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _resolve(target: Target):
    """(owner, attribute) holding the original function."""
    try:
        owner = import_module(target.module)
    except ImportError as exc:
        raise TraceError(f"{target.name}: cannot import {target.module}") from exc
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"{target.name}: {target.module}.{target.qualname} not found")
    if attr not in vars(owner):
        raise TraceError(f"{target.name}: {target.module}.{target.qualname} not found")
    return owner, attr


def lookup_sites(owner, attr: str, package: str = "sdabe") -> list:
    """(object, attribute) pairs through which `owner.attr` is reached: the
    owner itself and every module of `package` that imported the name."""
    original = vars(owner)[attr]
    sites = [(owner, attr)]
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        sites += [(mod, key) for key, val in list(vars(mod).items())
                  if val is original and (mod, key) != (owner, attr)]
    return sites


@contextmanager
def patched(replacements):
    """Replace `owner.attr` at all its lookup sites with `make(original)`
    for each (owner, attr, make), and put the originals back on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            sites = lookup_sites(owner, attr)
            wrapper = make(vars(owner)[attr])
            for obj, key in sites:
                saved.append((obj, key, vars(obj)[key]))
                setattr(obj, key, wrapper)
        yield
    finally:
        for obj, key, val in reversed(saved):
            setattr(obj, key, val)


def instrument(recorder: Recorder, targets):
    """Context manager that records a span for every call of every target."""
    replacements = []
    for t in targets:
        owner, attr = _resolve(t)
        replacements.append((owner, attr, lambda fn, t=t: recorder.wrap(t.name, fn, t.observe)))
    return patched(replacements)


def layer_stats(spans: list[Span], names) -> dict[str, dict[str, float]]:
    """calls, mean milliseconds per call and mean self milliseconds per call
    for each span name (zeros for a name without calls)."""
    selfs = self_times(spans)
    acc = {n: [0, 0.0, 0.0] for n in names}
    for sp, s in zip(spans, selfs):
        if sp.name in acc:
            a = acc[sp.name]
            a[0] += 1
            a[1] += sp.end - sp.start
            a[2] += s
    out = {}
    for n, (calls, total, self_total) in acc.items():
        out[n] = {
            "calls": calls,
            "ms_per_call": 1e3 * total / calls if calls else 0.0,
            "ms_self": 1e3 * self_total / calls if calls else 0.0,
        }
    return out


def require_calls(spans: list[Span], expected, forbidden=(), phase: str = "timed") -> None:
    """Fail loudly when an expected layer recorded no call, or when a layer
    that must stay out of the timed section was called there."""
    seen = {sp.name for sp in spans}
    missing = sorted(set(expected) - seen)
    if missing:
        raise TraceError("expected spans recorded zero calls: " + ", ".join(missing))
    leaked = sorted({sp.name for sp in spans if sp.phase == phase} & set(forbidden))
    if leaked:
        raise TraceError(f"spans that must not run in the {phase} section did: " + ", ".join(leaked))
