"""First-class integrators: a registry of the same shape as the backends'.

Before this layer existed the integration scheme was welded to its entry
point: :class:`~repro.core.simulation.Simulation` *was* the shared-step
Hermite loop, :class:`~repro.core.block_hermite.BlockHermiteIntegrator`
could only be driven by hand with an ad-hoc ``partial_force`` callable,
and the leapfrog comparator lived outside the RunSpec/CLI/service path
entirely.  Now an :class:`IntegratorSpec` — a name plus typed options —
is the declarative form of an integration scheme, exactly as
:class:`~repro.backends.registry.BackendSpec` is for a force backend:
:func:`make_integrator` realises it against a system and a backend, and
:func:`register_integrator` lets new schemes join the same machinery
(CLI choices, RunSpec round-trips, the CI integrator matrix).

Every registered integrator satisfies the :class:`Integrator` protocol —
``initialise()`` plus ``run(n_cycles) -> SimulationResult`` — so every
caller of ``RunSpec.make_simulation`` keeps working unchanged whichever
scheme the spec names.  ``run(n_cycles)`` always advances the system by
``n_cycles * dt`` of physical time: for the shared-step schemes that is
n_cycles steps, for the block scheme it is however many block updates
the hierarchy needs, so energy gates and benches compare integrators at
matched physical spans.

The block scheme is where the backend protocol's target-subset contract
pays off: each block update evaluates forces only on the active block
through :func:`~repro.backends.protocol.compute_on_targets`, so an
O(N_active * N) device dispatch replaces the O(N^2) full evaluation.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from ..backends.protocol import (
    TimelineSegment,
    accepts_trace,
    compute_on_targets,
)
from ..backends.registry import ComponentSpec, OptionSpec, Registry
from ..errors import ConfigurationError, UnknownIntegratorError
from .block_hermite import MAX_LEVEL, BlockHermiteIntegrator
from .leapfrog import leapfrog_step
from .simulation import (
    CycleRecord,
    HermiteIntegrator,
    HostCostModel,
    SimulationResult,
)
from .timestep import SharedTimestep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .particles import ParticleSystem

__all__ = [
    "Integrator",
    "IntegratorSpec",
    "INTEGRATORS",
    "register_integrator",
    "make_integrator",
    "integrator_names",
    "integrator_entry",
    "integrator_choices_help",
    "BlockHermiteDriver",
    "LeapfrogDriver",
]


@runtime_checkable
class Integrator(Protocol):
    """What every registered integration scheme provides."""

    system: "ParticleSystem"
    name: str

    def initialise(self) -> list[TimelineSegment]:
        """Evaluate initial forces; idempotent once run."""
        ...  # pragma: no cover - protocol

    def run(self, n_cycles: int) -> SimulationResult:
        """Advance ``n_cycles * dt`` of physical time."""
        ...  # pragma: no cover - protocol


class IntegratorSpec(ComponentSpec):
    """An integrator, declaratively: registry name + option overrides."""

    kind = "integrator"


INTEGRATORS = Registry(IntegratorSpec, UnknownIntegratorError)

register_integrator = INTEGRATORS.register
integrator_names = INTEGRATORS.names
integrator_entry = INTEGRATORS.entry
integrator_choices_help = INTEGRATORS.choices_help


def make_integrator(
    spec: "IntegratorSpec | str",
    system: "ParticleSystem",
    backend: Any,
    *,
    dt: float | None = None,
    adaptive: bool = False,
    host_cost: HostCostModel | None = None,
    trace: Any = None,
    **extra: Any,
) -> Integrator:
    """Realise an :class:`IntegratorSpec` (or bare name) into a driver.

    ``dt`` and ``adaptive`` come from the run (not the integrator
    options): they say how far one ``run(n_cycles)`` cycle advances and
    whether the shared-step scheme adapts its step.  ``extra`` options
    override the spec's, mirroring :func:`~repro.backends.registry
    .make_backend`.
    """
    entry, options = INTEGRATORS.resolve(spec, **extra)
    return entry.factory(
        system, backend,
        dt=dt, adaptive=adaptive,
        host_cost=host_cost if host_cost is not None else HostCostModel(),
        trace=trace,
        **options,
    )


def _require_dt(dt: float | None, name: str) -> float:
    if dt is None or dt <= 0 or not np.isfinite(dt):
        raise ConfigurationError(
            f"integrator {name!r} needs a positive finite dt, got {dt}"
        )
    return float(dt)


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------


class BlockHermiteDriver:
    """Block-timestep Hermite over a backend's target-subset evaluation.

    Wraps :class:`~repro.core.block_hermite.BlockHermiteIntegrator` with
    the force callable routed through :func:`~repro.backends.protocol
    .compute_on_targets`, so each block update dispatches only the
    active block's i-rows to the backend (i-tile subsets on the device
    backends, row subsets on the CPU ones) and the block's timeline
    carries the backend's subset-priced segments.  ``run(n_cycles)``
    advances ``n_cycles * dt`` of physical time in however many block
    updates the hierarchy takes, then synchronises every particle to the
    final global time; each block contributes one :class:`CycleRecord`.
    """

    name = "block-hermite"

    def __init__(
        self,
        system: "ParticleSystem",
        backend: Any,
        *,
        dt: float | None,
        host_cost: HostCostModel,
        trace: Any = None,
        adaptive: bool = False,
        eta: float = 0.02,
        eta_start: float = 0.01,
        dt_max: float = 0.0625,
        block_levels: int = MAX_LEVEL,
    ) -> None:
        # per-particle adaptive by construction: the run's shared
        # `adaptive` flag has nothing extra to switch on
        self.dt = _require_dt(dt, self.name)
        self.system = system
        self.backend = backend
        self.host_cost = host_cost
        self.trace = trace
        self._backend_traced = trace is not None and accepts_trace(backend)
        if self._backend_traced:
            backend.trace = trace
        self._pending: list[TimelineSegment] = []
        self.integrator = BlockHermiteIntegrator(
            system, eta=eta, eta_start=eta_start, dt_max=dt_max,
            block_levels=block_levels, partial_force=self._force,
        )
        self._initialised = False

    @property
    def stats(self):
        """The wrapped integrator's :class:`BlockStats` work accounting."""
        return self.integrator.stats

    def _force(self, pos, vel, mass, targets):
        trace = self.trace
        span = (
            trace.span(
                "force", category="sim", backend=self.backend.name,
                n_targets=int(len(targets)),
            )
            if trace is not None else nullcontext()
        )
        with span:
            evaluation = compute_on_targets(
                self.backend, pos, vel, mass, targets
            )
            if trace is not None and not self._backend_traced:
                for seg in evaluation.segments:
                    trace.add_span(
                        seg.detail or seg.tag, seg.seconds, category=seg.tag
                    )
        self._pending.extend(evaluation.segments)
        return evaluation.acc, evaluation.jerk

    def _drain(self) -> list[TimelineSegment]:
        segments, self._pending = self._pending, []
        return segments

    def initialise(self) -> list[TimelineSegment]:
        """Initial full-set force evaluation and level assignment."""
        trace = self.trace
        span = (
            trace.span("initialise", category="sim")
            if trace is not None else nullcontext()
        )
        with span:
            segments: list[TimelineSegment] = []
            if self.host_cost.init_seconds > 0.0:
                segments.append(
                    TimelineSegment("host", self.host_cost.init_seconds, "init")
                )
                if trace is not None:
                    trace.add_span(
                        "init", self.host_cost.init_seconds, category="host"
                    )
            self.integrator.initialise()
            segments.extend(self._drain())
            self._initialised = True
        return segments

    def run(self, n_cycles: int) -> SimulationResult:
        """Advance ``n_cycles * dt`` of physical time in block updates."""
        if n_cycles <= 0:
            raise ConfigurationError(
                f"n_cycles must be positive, got {n_cycles}"
            )
        trace = self.trace
        run_span = (
            trace.span(
                "simulation.run", category="sim", n=self.system.n,
                n_cycles=n_cycles, backend=self.backend.name,
                integrator=self.name,
            )
            if trace is not None else nullcontext()
        )
        with run_span:
            timeline: list[TimelineSegment] = []
            if not self._initialised:
                timeline.extend(self.initialise())
            t_end = self.system.time + n_cycles * self.dt
            records: list[CycleRecord] = []
            per_particle = self.host_cost.seconds_per_particle_cycle
            index = 0
            while self.integrator.next_block_time() <= t_end:
                t_before = self.system.time
                block_span = (
                    trace.span("block", category="sim", index=index)
                    if trace is not None else nullcontext()
                )
                with block_span:
                    # host halves priced per phase: the predictor touches
                    # every particle, the corrector only the active block
                    predict_s = 0.5 * per_particle * self.system.n
                    if trace is not None and predict_s > 0.0:
                        trace.add_span("predict", predict_s, category="host")
                    n_active = self.integrator.step_block()
                    correct_s = 0.5 * per_particle * n_active
                    if trace is not None and correct_s > 0.0:
                        trace.add_span("correct", correct_s, category="host")
                segments = self._drain()
                if per_particle > 0.0:
                    segments = (
                        [TimelineSegment("host", predict_s, "predict")]
                        + segments
                        + [TimelineSegment("host", correct_s, "correct")]
                    )
                timeline.extend(segments)
                records.append(CycleRecord(
                    index=index,
                    time=self.system.time,
                    dt=self.system.time - t_before,
                    model_seconds=sum(s.seconds for s in segments),
                ))
                index += 1
            self.integrator.synchronise()
        return SimulationResult(
            system=self.system,
            cycles=records,
            timeline=timeline,
            backend_name=self.backend.name,
        )


class LeapfrogDriver:
    """Fixed-step KDK leapfrog over any force backend, RunSpec-shaped.

    The numerical step is :func:`~repro.core.leapfrog.leapfrog_step`
    verbatim; this driver adds the timeline/Scope bookkeeping the other
    registered integrators provide, so ``run(n_cycles)`` returns a full
    :class:`SimulationResult`.  Jerk-free: backends still return jerk,
    which is ignored.
    """

    name = "leapfrog"

    def __init__(
        self,
        system: "ParticleSystem",
        backend: Any,
        *,
        dt: float | None,
        host_cost: HostCostModel,
        trace: Any = None,
        adaptive: bool = False,
    ) -> None:
        if adaptive:
            raise ConfigurationError(
                "leapfrog is fixed-step; adaptive timestepping is not "
                "supported"
            )
        self.dt = _require_dt(dt, self.name)
        self.system = system
        self.backend = backend
        self.host_cost = host_cost
        self.trace = trace
        self._backend_traced = trace is not None and accepts_trace(backend)
        if self._backend_traced:
            backend.trace = trace
        self._initialised = False
        self._last_segments: tuple[TimelineSegment, ...] = ()

    def _evaluate_acc(self, pos, vel):
        evaluation = self.backend.compute(pos, vel, self.system.mass)
        if self.trace is not None and not self._backend_traced:
            for seg in evaluation.segments:
                self.trace.add_span(
                    seg.detail or seg.tag, seg.seconds, category=seg.tag
                )
        self._last_segments = evaluation.segments
        return evaluation.acc

    def initialise(self) -> list[TimelineSegment]:
        """Initial acceleration evaluation (and host init cost)."""
        trace = self.trace
        span = (
            trace.span("initialise", category="sim")
            if trace is not None else nullcontext()
        )
        with span:
            segments: list[TimelineSegment] = []
            if self.host_cost.init_seconds > 0.0:
                segments.append(
                    TimelineSegment("host", self.host_cost.init_seconds, "init")
                )
                if trace is not None:
                    trace.add_span(
                        "init", self.host_cost.init_seconds, category="host"
                    )
            self.system.acc = self._evaluate_acc(
                self.system.pos, self.system.vel
            )
            segments.extend(self._last_segments)
            self._initialised = True
        return segments

    def run(self, n_cycles: int) -> SimulationResult:
        """Advance ``n_cycles`` KDK steps."""
        if n_cycles <= 0:
            raise ConfigurationError(
                f"n_cycles must be positive, got {n_cycles}"
            )
        trace = self.trace
        run_span = (
            trace.span(
                "simulation.run", category="sim", n=self.system.n,
                n_cycles=n_cycles, backend=self.backend.name,
                integrator=self.name,
            )
            if trace is not None else nullcontext()
        )
        with run_span:
            timeline: list[TimelineSegment] = []
            if not self._initialised:
                timeline.extend(self.initialise())
            records: list[CycleRecord] = []
            s = self.system
            for index in range(n_cycles):
                cycle_segments = list(self.host_cost.cycle_segments(s.n))
                half_s = cycle_segments[0].seconds if cycle_segments else 0.0
                cycle_span = (
                    trace.span("cycle", category="sim", index=index,
                               dt=self.dt)
                    if trace is not None else nullcontext()
                )
                with cycle_span:
                    if trace is not None:
                        trace.add_span("predict", half_s, category="host")
                    force_span = (
                        trace.span("force", category="sim",
                                   backend=self.backend.name)
                        if trace is not None else nullcontext()
                    )
                    with force_span:
                        s.pos, s.vel, s.acc = leapfrog_step(
                            s.pos, s.vel, s.acc, self.dt, self._evaluate_acc
                        )
                    if trace is not None:
                        trace.add_span("correct", half_s, category="host")
                s.time += self.dt
                s.check_finite()
                if cycle_segments:
                    segments = (
                        [cycle_segments[0]]
                        + list(self._last_segments)
                        + [cycle_segments[1]]
                    )
                else:
                    segments = list(self._last_segments)
                timeline.extend(segments)
                records.append(CycleRecord(
                    index=index,
                    time=s.time,
                    dt=self.dt,
                    model_seconds=sum(seg.seconds for seg in segments),
                ))
        return SimulationResult(
            system=self.system,
            cycles=records,
            timeline=timeline,
            backend_name=self.backend.name,
        )


# --------------------------------------------------------------------------
# Built-in integrators
# --------------------------------------------------------------------------


def _validate_power_of_two(value: float) -> str | None:
    if value <= 0 or math.frexp(value)[0] != 0.5:
        return "must be a positive power of two"
    return None


def _validate_positive(value: float) -> str | None:
    if value <= 0:
        return "must be positive"
    return None


def _make_hermite(system, backend, *, dt, adaptive, host_cost, trace,
                  eta, eta_start, dt_min, dt_max, criterion):
    if adaptive:
        timestep = SharedTimestep(
            eta=eta, eta_start=eta_start, dt_min=dt_min, dt_max=dt_max,
            criterion=criterion,
        )
        return HermiteIntegrator(
            system, backend, timestep=timestep, host_cost=host_cost,
            trace=trace,
        )
    _require_dt(dt, "hermite")
    return HermiteIntegrator(
        system, backend, dt=dt, host_cost=host_cost, trace=trace
    )


_ETA_OPTIONS = (
    OptionSpec("eta", float, 0.02, "Aarseth accuracy parameter",
               validate=_validate_positive),
    OptionSpec("eta_start", float, 0.01, "startup criterion accuracy",
               validate=_validate_positive),
)

register_integrator(
    "hermite", _make_hermite,
    description="4th-order shared-step Hermite predictor-corrector "
                "(the paper's integrator; adaptive via --adaptive)",
    options=_ETA_OPTIONS + (
        OptionSpec("dt_min", float, 1.0e-8,
                   "adaptive shared-step floor", validate=_validate_positive),
        OptionSpec("dt_max", float, 0.125,
                   "adaptive shared-step ceiling",
                   validate=_validate_positive),
        OptionSpec("criterion", str, "aarseth",
                   "adaptive criterion: aarseth | simple"),
    ),
)
register_integrator(
    "block-hermite", BlockHermiteDriver,
    description="individual power-of-two block timesteps; forces on the "
                "active block only (compute_on_targets)",
    options=_ETA_OPTIONS + (
        OptionSpec("dt_max", float, 0.0625,
                   "hierarchy root step (a power of two)",
                   validate=_validate_power_of_two),
        OptionSpec("block_levels", int, MAX_LEVEL,
                   f"hierarchy depth: dt down to dt_max / 2^levels "
                   f"(max {MAX_LEVEL})"),
    ),
)
register_integrator(
    "leapfrog", LeapfrogDriver,
    description="2nd-order symplectic kick-drift-kick comparator "
                "(fixed step, jerk-free)",
)
