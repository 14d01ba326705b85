"""In-memory tracing for the benchmark's traced run.

Wrappers are installed from outside the package, at the attribute each
caller looks the function up through (a module global for module-level
calls, the class for methods). Nothing in `pachinqo` knows about them,
and the untraced process never installs them.

Spans: one per pipeline stage per case, parented to a span for the case;
all spans of one pass over the workload share a pass id.
"""
from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

MARK = "__perfbench_wrapper__"

# (owner, attribute, metric key, mode). The owner is a module, or
# "module:Class" for a method. Mode "timed" adds call count and seconds,
# "counted" only the call count (for calls too hot to time), and
# "clearance" also counts calls that found the point clear.
TARGETS = (
    ("pachinqo.scheduler", "greedy_maxcut_group", "placement.group", "timed"),
    ("pachinqo.scheduler", "degree_split_group", "placement.group", "timed"),
    ("pachinqo.scheduler", "assign_atoms", "placement.assign_atoms", "timed"),
    ("pachinqo.machine", "pair_clear_sites", "machine.pair_clear_sites", "timed"),
    ("pachinqo.placement", "pair_clear_sites", "machine.pair_clear_sites", "timed"),
    ("pachinqo.scheduler", "pair_clear_sites", "machine.pair_clear_sites", "timed"),
    ("pachinqo.scheduler", "movement_phase_time", "scheduler.move_phases", "counted"),
    ("pachinqo.placement", "movement_phase_time", "scheduler.move_phases", "counted"),
    ("pachinqo.kernels", "clear_from", "kernels.clear", "clearance"),
    ("pachinqo.kernels", "clear_from_except", "kernels.clear", "clearance"),
    ("pachinqo.machine:ZoneLayout", "in_any_zone", "machine.in_any_zone", "counted"),
    ("pachinqo.circuit:Frontier", "executable_u3", "circuit.executable_u3", "counted"),
    ("pachinqo.circuit:Frontier", "next_gate", "circuit.next_gate", "counted"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def installed_wrappers() -> list[str]:
    """Names of the targets that currently hold a benchmark wrapper."""
    return [f"{owner}.{attr}" for owner, attr, _, _ in TARGETS
            if getattr(getattr(_owner(owner), attr), MARK, False)]


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    pass_id: int
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans, call counts and call seconds in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.pass_id = 0
        self._open: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> None:
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans), name, parent, self.pass_id, perf_counter())
        self.spans.append(span)
        self._open.append(span)

    def end(self) -> None:
        self._open.pop().end = perf_counter()

    def new_pass(self) -> None:
        """Start a pass: counts and seconds restart, spans accumulate."""
        self.pass_id += 1
        self.calls.clear()
        self.seconds.clear()

    def stage_seconds(self) -> Counter[str]:
        """Seconds per stage name over the current pass's stage spans."""
        out: Counter[str] = Counter()
        for s in self.spans:
            if s.pass_id == self.pass_id and s.parent is not None:
                out[s.name] += s.end - s.start
        return out

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, key: str, mode: str):
        calls, seconds = self.calls, self.seconds
        if mode == "counted":
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
        elif mode == "timed":
            def wrapper(*args, **kwargs):
                calls[key] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[key] += perf_counter() - t0
        else:  # clearance
            clear_key = key + ".hits"

            def wrapper(*args, **kwargs):
                calls[key] += 1
                t0 = perf_counter()
                ok = fn(*args, **kwargs)
                seconds[key] += perf_counter() - t0
                if ok:
                    calls[clear_key] += 1
                return ok
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner_path, attr, key, mode in TARGETS:
            owner = _owner(owner_path)
            fn = getattr(owner, attr)
            if getattr(fn, MARK, False):
                raise RuntimeError(f"{owner_path}.{attr} is already wrapped")
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, key, mode))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
