"""Per-layer tracing for the traced run, recorded from the benchmark's side.

Nothing inside ``src/repro`` changes: :class:`Probes` swaps timing
wrappers onto the public functions at each layer boundary for exactly
the duration of a ``with probes.active():`` block and restores the
originals on exit, so an untraced simulation stepped between two traced
steps runs the unwrapped code.

A :class:`Recorder` keeps every span in memory — name, start, end,
parent, operation id and self time (its duration minus the part its
child spans cover) — and writes them once, at exit.  Very frequent leaf
calls (``Dram.touch_read``) are aggregated into a count and a busy time
instead of one span each; their time still counts as child time of the
enclosing span.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

_clock = time.perf_counter

#: span record fields, in tuple order
SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "op", "self_s")


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, float]] = []
        self.leaf_count: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: int) -> None:
        """Tag this thread's next spans with operation (step or job) ``op``;
        spans on other threads (the service's executor) carry -1."""
        self._local.op = op

    def _op(self) -> int:
        return getattr(self._local, "op", -1)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span called ``name``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        with self._lock:
            # [slot, child seconds]; the slot is reserved up front so a
            # parent's index is known to (and precedes) its children
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
        stack.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans[frame[0]] = (
                name, start, end, parent, self._op(), duration - frame[1]
            )

    def add_root(self, name: str, start: float, end: float) -> None:
        """Record a parentless span timed by the caller.

        For spans that cross an ``await``: coroutines sharing the event
        loop thread would interleave on the parent stack.
        """
        with self._lock:
            self.spans.append((name, start, end, -1, self._op(), end - start))

    def leaf(self, name: str, fn, args, kwargs):
        """Run ``fn`` as an aggregated leaf: count and busy time only."""
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _clock() - start
            stack = self._stack()
            if stack:
                stack[-1][1] += duration
            with self._lock:
                self.leaf_count[name] += 1
                self.leaf_s[name] += duration

    # -- queries -------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def busy_prefix(self, prefix: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[0].startswith(prefix):
                out[s[0]] += s[2] - s[1]
        return dict(out)

    def self_time(self, name: str) -> float:
        return sum(s[5] for s in self.spans if s[0] == name)

    def n(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def p50(self, name: str) -> float:
        values = self.durations(name)
        return median(values) if values else 0.0

    def uncovered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that no root span covers."""
        covered = 0.0
        reach = start
        for _, s0, s1, *_ in sorted(
            (s for s in self.spans if s[3] == -1), key=lambda s: s[1]
        ):
            s0, s1 = max(s0, reach), min(s1, end)
            if s1 > s0:
                covered += s1 - s0
                reach = s1
        return (end - start) - covered

    def write(self, path, header: dict) -> None:
        """Write every span and leaf aggregate as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **header,
            "fields": SPAN_FIELDS,
            "spans": self.spans,
            "leaves": {
                name: {"count": self.leaf_count[name],
                       "busy_s": self.leaf_s[name]}
                for name in self.leaf_count
            },
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload))


class Probes:
    """Timing wrappers at the layer boundaries, installed on demand."""

    def __init__(self, recorder: Recorder) -> None:
        from repro.backends import runspec, sharded
        from repro.backends.protocol import supports_targets
        from repro.core import integrators
        from repro.metalium.command_queue import CommandQueue
        from repro.nbody_pm import backend as pm_backend
        from repro.nbody_pm.poisson import PoissonSolver
        from repro.nbody_tt.engine import BatchedDispatchEngine
        from repro.nbody_tt.tiling import ParticleTiles
        from repro.service.scheduler import CardFarm
        from repro.wormhole.dram import Dram

        self.rec = rec = recorder
        #: ShardedTTBackend child -> card index, filled by watch_backend
        self.card_of: dict[int, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []

        def patch(owner, attr, make):
            original = owner.__dict__[attr]
            is_cm = isinstance(original, classmethod)
            fn = original.__func__ if is_cm else original
            wrapper = make(fn)
            self._patches.append(
                (owner, attr, original,
                 classmethod(wrapper) if is_cm else wrapper)
            )

        def timed(name, *, after=None, before=None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    if before is not None:
                        before(args)
                    with rec.span(name(args) if callable(name) else name):
                        result = fn(*args, **kwargs)
                    if after is not None:
                        after(args, result)
                    return result
                return wrapper
            return make

        def leaf(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    return rec.leaf(name, fn, args, kwargs)
                return wrapper
            return make

        def build_counter(args):
            if not args[1].built:
                rec.count("metalium.program_builds")

        def fallback_counter(fn):
            def wrapper(backend, *args, **kwargs):
                if not supports_targets(backend):
                    rec.count("backends.targets.masked_fallbacks")
                return fn(backend, *args, **kwargs)
            return wrapper

        patch(ParticleTiles, "from_arrays", timed("nbody_tt.tilize"))
        patch(BatchedDispatchEngine, "compute_tiles", timed(
            "nbody_tt.kernel",
            after=lambda args, _: rec.count("nbody_tt.kernel_tiles",
                                            len(args[1])),
        ))
        patch(CommandQueue, "enqueue_program",
              timed("metalium.enqueue", before=build_counter))
        patch(Dram, "touch_read", leaf("wormhole.dram.touch_read"))
        patch(sharded, "run_card", timed(
            lambda args: f"backends.sharded.card{self.card_of.get(id(args[0]), -1)}"
        ))
        patch(pm_backend, "near_field_correction", timed(
            "nbody_pm.near",
            after=lambda args, result: rec.count("nbody_pm.near_pairs",
                                                 result[2]),
        ))
        patch(pm_backend, "cic_deposit", timed("nbody_pm.mesh"))
        patch(pm_backend, "cic_gather", timed("nbody_pm.mesh"))
        patch(PoissonSolver, "accelerations", timed("nbody_pm.mesh"))
        patch(integrators, "compute_on_targets", fallback_counter)
        patch(runspec.RunSpec, "canonical_hash",
              timed("backends.runspec.hash"))
        patch(CardFarm, "execute", timed("service.exec"))

    def watch_backend(self, backend) -> None:
        """Time one realised backend's force entry points (instance-level)."""
        rec = self.rec
        for card, child in enumerate(getattr(backend, "children", ())):
            self.card_of[id(child)] = card
        for attr, rows_arg in (("compute", 2), ("compute_on_targets", 3)):
            bound = getattr(backend, attr, None)
            if bound is None:
                continue

            def wrapper(*args, _bound=bound, _rows=rows_arg):
                rec.count("backends.force.rows", len(args[_rows]))
                with rec.span("backends.force"):
                    return _bound(*args)

            setattr(backend, attr, wrapper)

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
