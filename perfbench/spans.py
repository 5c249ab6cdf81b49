"""In-memory span tracer for the benchmark's traced run, and the per-layer
metrics computed from its spans.

Spans are recorded from the benchmark's own files: ``traced_layers`` swaps
each layer function for a wrapper at the place its caller looks it up
(``scma.montecarlo`` and ``scma.optimizer`` import by name), so nothing under
``src/`` changes.  A span opened on a worker thread with no open span of its
own takes the innermost open span of the main thread as parent; that is the
Monte-Carlo call that scheduled the block.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with parent ids; safe to use from worker threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) if tid != self._main else None
            parent = main[-1] if main else None
        with self._lock:
            sp = Span(next(self._ids), parent, name, 0.0)
            self.spans.append(sp)
        stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def to_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NoTrace:
    """Stand-in for a tracer when tracing is off."""

    def span(self, name: str):
        return nullcontext()


NO_TRACE = NoTrace()


def wrap_in_span(
    tracer: Tracer,
    name: str,
    fn: Callable,
    attrs: Callable[[tuple, dict, object], dict] | None = None,
) -> Callable:
    """``fn`` with each call recorded as a span; ``attrs(args, kwargs,
    result)`` adds attributes such as frame counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if attrs is not None:
                sp.attrs.update(attrs(args, kwargs, out))
        return out

    return wrapper


@contextmanager
def patched(module, name: str, replacement: Callable) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def _detector_attrs(args, kwargs, out) -> dict:
    y = kwargs["y"] if "y" in kwargs else args[0]
    return {"frames": int(len(y))}


def _step_attrs(args, kwargs, out) -> dict:
    before = kwargs["pop"] if "pop" in kwargs else args[0]
    changed = (out.rows != before.rows).any(axis=1)
    return {"trials": int(len(before.rows)), "accepted": int(changed.sum())}


@contextmanager
def traced_layers(tracer: Tracer) -> Iterator[None]:
    """Record spans around every layer call the workloads make."""
    import scma.montecarlo as mc
    import scma.optimizer as opt

    layers = (
        (mc, "draw_frame_block", "channel", None),
        (mc, "mpa_detect_batch", "detector", _detector_attrs),
        (mc, "hard_decision", "decide", None),
        (opt, "estimate_ser", "montecarlo", None),
        (opt, "normalize", "normalize", None),
        (opt, "instantiate", "instantiate", None),
        (opt, "init_population", "init", None),
        (opt, "step_generation", "step", _step_attrs),
    )
    with ExitStack() as stack:
        for module, attr, name, attrs in layers:
            fn = wrap_in_span(tracer, name, getattr(module, attr), attrs)
            stack.enter_context(patched(module, attr, fn))
        yield


def union_length(
    intervals: Iterable[tuple[float, float]],
    lo: float = float("-inf"),
    hi: float = float("inf"),
) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]; overlapping
    intervals (children on concurrent workers) are counted once."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(parent: Span, children: Iterable[Span]) -> float:
    """Parent duration minus the part of its interval any child covers."""
    covered = union_length(((c.start, c.end) for c in children), parent.start, parent.end)
    return parent.seconds - covered


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer counts and times from one traced pass.  Layers a workload
    does not run report zero."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def busy(name: str) -> float:
        return sum((s.seconds for s in by_name.get(name, [])), 0.0)

    mc = by_name.get("montecarlo", [])
    mc_children = [c for s in mc for c in children.get(s.id, [])]
    mc_wall = sum(s.seconds for s in mc)
    frames = sum(s.attrs["frames"] for s in by_name.get("detector", []))
    det_busy = busy("detector")

    # a generation runs from the end of the previous init or step span to the
    # end of its own step span, so it includes survivor re-measurement
    marks = sorted(by_name.get("init", []) + by_name.get("step", []), key=lambda s: s.end)
    covered_by = [s for n in ("montecarlo", "normalize", "instantiate") for s in by_name.get(n, [])]
    opt_self = 0.0
    for prev, cur in zip(marks, marks[1:]):
        if cur.name == "step":
            lo, hi = prev.end, cur.end
            opt_self += (hi - lo) - union_length(((s.start, s.end) for s in covered_by), lo, hi)
    steps = by_name.get("step", [])
    trials = sum(s.attrs["trials"] for s in steps)

    return {
        "channel.calls": calls("channel"),
        "channel.busy_s": busy("channel"),
        "detector.calls": calls("detector"),
        "detector.frames": frames,
        "detector.busy_s": det_busy,
        "detector.frames_per_busy_s": frames / det_busy if det_busy > 0 else 0.0,
        "detector.decide_s": busy("decide"),
        "montecarlo.calls": len(mc),
        "montecarlo.blocks": calls("decide"),
        "montecarlo.self_s": sum(self_time(s, children.get(s.id, [])) for s in mc),
        "montecarlo.parallel_eff": (
            sum(c.seconds for c in mc_children) / (mc_wall * workers) if mc_wall > 0 else 0.0
        ),
        "structure.normalize_calls": calls("normalize"),
        "structure.normalize_s": busy("normalize"),
        "structure.instantiate_calls": calls("instantiate"),
        "structure.instantiate_s": busy("instantiate"),
        "optimizer.self_s": opt_self,
        "optimizer.accept_ratio": (
            sum(s.attrs["accepted"] for s in steps) / trials if trials else 0.0
        ),
    }
