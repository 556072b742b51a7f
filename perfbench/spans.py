"""Spans around the library's functions, recorded from outside the library.

`Tracer.install` rebinds every public module-level function of the given
modules (plus a few named extras) to a wrapper that records one span per
call: name, start, end, parent span and input id, and the exception type
when the call raised.  Every module attribute bound to the original
function is rebound, so calls made through `from .x import f` copies are
seen too.  Spans live in flat arrays in memory; `layer_totals` derives
calls, inclusive and self time per name from them, and `dump` writes them
out as JSON when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    input: int  # input id; -1 for set-up work
    error: str = ""  # exception type name when the call raised


@dataclass
class LayerTotal:
    calls: int = 0
    s: float = 0.0  # inclusive time, recursive calls counted once
    self_s: float = 0.0  # time not covered by child spans
    errors: int = 0  # calls that raised


class Tracer:
    """Collects spans for calls into the wrapped functions.

    `extras` maps a module name to further names to wrap: a private helper
    ("_is_primitive") or a method ("NumberField.refine").
    """

    def __init__(self, extras: dict[str, tuple[str, ...]] | None = None):
        self.extras = extras or {}
        self.input_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._name_idx = array("H")
        self._inputs = array("q")
        self._errors: dict[int, str] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        """Wrap the functions of `modules` and rebind them everywhere in `modules`."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
            for path in self.extras.get(short, ()):
                cls, _, attr = path.rpartition(".")
                owner = getattr(mod, cls) if cls else mod
                fn = vars(owner)[attr]
                w = self._wrap(fn, f"{short}.{path}")
                if owner is mod:
                    wrapped[id(fn)] = w
                else:  # a method: rebind on its class only
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, w)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        starts, ends, parents = self._starts, self._ends, self._parents
        name_idx, inputs, errors, stack = self._name_idx, self._inputs, self._errors, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_idx.append(nid)
            parents.append(stack[-1])
            inputs.append(tracer.input_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self) -> list[Span]:
        names, errors = self.names, self._errors
        return [
            Span(names[n], s, e, p, i, errors.get(k, ""))
            for k, (n, s, e, p, i) in enumerate(
                zip(self._name_idx, self._starts, self._ends, self._parents, self._inputs)
            )
        ]


def layer_totals(spans: list[Span], setup: bool = True) -> dict[str, LayerTotal]:
    """Calls, inclusive time and self time per span name.

    With `setup` false, spans of set-up work (input -1) are left out.

    Spans must be in start order, so every parent precedes its children.
    A span's self time is its duration minus the durations of its direct
    children (nested calls are disjoint and inside the parent).  Inclusive
    time counts only spans with no same-named ancestor, so recursion is
    not counted twice.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    totals: dict[str, LayerTotal] = {}
    path: list[int] = []  # open ancestors of the current span
    on_path: dict[str, int] = {}
    for i, sp in enumerate(spans):
        while path and path[-1] != sp.parent:
            on_path[spans[path.pop()].name] -= 1
        path.append(i)
        on_path[sp.name] = on_path.get(sp.name, 0) + 1
        if sp.input < 0 and not setup:
            continue
        tot = totals.setdefault(sp.name, LayerTotal())
        dur = sp.end - sp.start
        tot.calls += 1
        tot.self_s += dur - child_time[i]
        if on_path[sp.name] == 1:
            tot.s += dur
        if sp.error:
            tot.errors += 1
    return totals


def dump(path: Path, spans: list[Span], meta: dict) -> None:
    """Write spans as compact JSON rows [name, start, end, parent, input, error]."""
    names = sorted({sp.name for sp in spans})
    index = {n: k for k, n in enumerate(names)}
    t0 = spans[0].start if spans else 0.0
    rows = [
        [index[sp.name], round(sp.start - t0, 9), round(sp.end - t0, 9), sp.parent, sp.input, sp.error]
        for sp in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {"meta": meta, "names": names, "columns": ["name", "start_s", "end_s", "parent", "input", "error"], "spans": rows},
            fh,
            separators=(",", ":"),
        )
