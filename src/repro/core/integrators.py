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
from typing import TYPE_CHECKING, Any, Iterator, Protocol, runtime_checkable

import numpy as np

from ..backends.protocol import TimelineSegment, compute_on_targets
from ..backends.registry import ComponentSpec, OptionSpec, Registry
from ..errors import ConfigurationError, UnknownIntegratorError
from .block_hermite import MAX_LEVEL, BlockHermiteIntegrator
from .leapfrog import leapfrog_step
from .simulation import (
    Driver,
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


class BlockHermiteDriver(Driver):
    """Block-timestep Hermite over a backend's target-subset evaluation.

    Wraps :class:`~repro.core.block_hermite.BlockHermiteIntegrator` with
    the force callable routed through :func:`~repro.backends.protocol
    .compute_on_targets`, so each block update dispatches only the
    active block's i-rows to the backend (i-tile subsets on the device
    backends, row subsets on the CPU ones) and the block's timeline
    carries the backend's subset-priced segments.  ``run(n_cycles)``
    advances ``n_cycles * dt`` of physical time in however many block
    updates the hierarchy takes, each contributing one
    :class:`CycleRecord`, then writes every particle predicted to the
    window's end into the system.  The integrator keeps its own state,
    so ``k`` calls of ``run(1)`` equal one ``run(k)``.
    """

    name = "block-hermite"
    step_span = "block"

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
        super().__init__(system, backend, host_cost=host_cost, trace=trace)
        self.integrator = BlockHermiteIntegrator(
            system, eta=eta, eta_start=eta_start, dt_max=dt_max,
            block_levels=block_levels, partial_force=self._force,
        )

    @property
    def stats(self):
        """The wrapped integrator's :class:`BlockStats` work accounting."""
        return self.integrator.stats

    def _force(self, pos, vel, mass, targets):
        evaluation = self._record(
            compute_on_targets(self.backend, pos, vel, mass, targets)
        )
        return evaluation.acc, evaluation.jerk

    def _start(self) -> None:
        self.integrator.initialise()

    def _steps(self, n_cycles: int) -> Iterator[None]:
        t_end = self.system.time + n_cycles * self.dt
        while self.integrator.next_block_time() <= t_end:
            yield
        self.integrator.synchronise(t_end)

    def _step(self) -> tuple[float, int]:
        t_before = self.integrator.time
        n_active = self.integrator.step_block()
        return self.integrator.time - t_before, n_active


class LeapfrogDriver(Driver):
    """Fixed-step KDK leapfrog over any force backend.

    The numerical step is :func:`~repro.core.leapfrog.leapfrog_step`
    verbatim.  Jerk-free: backends still return jerk, which is ignored.
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
        super().__init__(system, backend, host_cost=host_cost, trace=trace)

    def _acc(self, pos, vel):
        return self._record(
            self.backend.compute(pos, vel, self.system.mass)
        ).acc

    def _start(self) -> None:
        self.system.acc = self._acc(self.system.pos, self.system.vel)

    def _step(self) -> tuple[float, int]:
        s = self.system
        s.pos, s.vel, s.acc = leapfrog_step(
            s.pos, s.vel, s.acc, self.dt, self._acc
        )
        s.time += self.dt
        s.check_finite()
        return self.dt, s.n


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
