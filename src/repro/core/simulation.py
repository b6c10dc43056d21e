"""The simulation driver: predict-evaluate-correct cycles over a backend.

The driver is backend-agnostic: a :class:`ForceBackend` is anything with a
``compute(pos, vel, mass) -> ForceEvaluation``.  The repository provides
three: the double-precision golden reference (:class:`ReferenceBackend`
here), the mixed-precision CPU model (:mod:`repro.cpuref`), and the
Wormhole offload (:mod:`repro.nbody_tt`).

Besides physics, the driver assembles the job's *timeline*: each cycle
contributes host phases (the double-precision predictor/corrector the
paper keeps on the CPU) and whatever phases the backend reports (device
compute, PCIe, kernel launches).  The telemetry stack replays this timeline
at 1 Hz to produce the power traces of the paper's Fig. 4.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

# the protocol now lives in the backends layer (its dependency-free floor);
# re-exported here so `from repro.core.simulation import ForceBackend, ...`
# keeps working for existing callers
from ..backends.protocol import (
    ForceBackend,
    ForceEvaluation,
    TimelineSegment,
    accepts_trace,
)
from ..errors import ConfigurationError
from .hermite import correct, predict

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from ..observability import Trace
from .particles import ParticleSystem
from .timestep import SharedTimestep
from .units import G_NBODY

__all__ = [
    "TimelineSegment",
    "ForceEvaluation",
    "ForceBackend",
    "ReferenceBackend",
    "HostCostModel",
    "CycleRecord",
    "SimulationResult",
    "Driver",
    "HermiteIntegrator",
    "Simulation",
]


class ReferenceBackend:
    """The golden reference as a backend: float64, no modelled time."""

    name = "reference-f64"

    def __init__(self, softening: float = 0.0, G: float = G_NBODY) -> None:
        self.softening = softening
        self.G = G

    def compute(self, pos, vel, mass) -> ForceEvaluation:
        """Evaluate float64 reference accelerations and jerks."""
        from .forces import accel_jerk_reference

        acc, jerk = accel_jerk_reference(
            pos, vel, mass, softening=self.softening, G=self.G
        )
        return ForceEvaluation(acc, jerk)

    def compute_on_targets(self, pos, vel, mass, targets) -> ForceEvaluation:
        """Subset evaluation: float64 rows for ``targets`` only.

        ``accel_jerk_on_targets`` accumulates each target row over the same
        j-blocking as the full evaluation, so the rows are bit-identical to
        a full :meth:`compute` sliced at ``targets``.
        """
        from ..backends.protocol import normalize_targets
        from .forces import accel_jerk_on_targets

        idx = normalize_targets(targets, mass.shape[0])
        acc, jerk = accel_jerk_on_targets(
            pos, vel, mass, idx, softening=self.softening, G=self.G
        )
        return ForceEvaluation(acc, jerk)


@dataclass(frozen=True)
class HostCostModel:
    """Modelled cost of the host-resident double-precision work.

    ``seconds_per_particle_cycle`` covers the predictor, corrector, and
    FP64<->FP32 marshalling per particle per cycle; ``init_seconds`` is the
    one-time host initialisation the paper's Fig. 4 shows at job start
    (cards stay at idle power while it runs).
    """

    seconds_per_particle_cycle: float = 0.0
    init_seconds: float = 0.0


@dataclass(frozen=True)
class CycleRecord:
    """Per-cycle diagnostics."""

    index: int
    time: float
    dt: float
    model_seconds: float


@dataclass
class SimulationResult:
    """Everything a campaign needs from one simulation run."""

    system: ParticleSystem
    cycles: list[CycleRecord]
    timeline: list[TimelineSegment]
    backend_name: str

    @property
    def model_seconds(self) -> float:
        """Total modelled wall time of the job (the MPI_Wtime window)."""
        return sum(s.seconds for s in self.timeline)

    def seconds_by_tag(self) -> dict[str, float]:
        """Modelled seconds aggregated by segment tag (host/device/...)."""
        out: dict[str, float] = {}
        for seg in self.timeline:
            out[seg.tag] = out.get(seg.tag, 0.0) + seg.seconds
        return out


class Driver:
    """The run loop every registered integration scheme shares.

    A scheme subclasses this and supplies only its numerics:

    * :meth:`_step` advances one step and returns ``(dt, n_corrected)``;
    * :meth:`_start` evaluates the initial forces (default: a full
      evaluation that sets ``acc`` and ``jerk``);
    * :meth:`_steps` paces one ``run(n_cycles)`` window (default:
      ``n_cycles`` shared steps).

    Every force evaluation a scheme makes goes through :meth:`_record`.
    The skeleton owns the rest, once: the trace handoff to a backend that
    accepts one (and leaf spans for one that does not), the host ``init``
    charge, the ``simulation.run`` / ``initialise`` spans, the per-step
    span with its ``predict`` / ``force`` / ``correct`` children, the host
    predictor and corrector halves around the backend segments, and the
    :class:`CycleRecord` / :class:`SimulationResult` assembly.
    """

    #: registry name, reported on the ``simulation.run`` span
    name: str
    #: Scope name of the per-step span
    step_span = "cycle"

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        host_cost: HostCostModel = HostCostModel(),
        trace: "Trace | None" = None,
    ) -> None:
        self.system = system
        self.backend = backend
        self.host_cost = host_cost
        self.trace = trace
        #: backends on the TracedForceBackend side of the contract
        #: (TTForceBackend, ShardedTTBackend) narrate their own
        #: Metalium/device spans; for the rest the driver converts the
        #: evaluation's timeline segments into leaf spans itself
        self._backend_traced = trace is not None and accepts_trace(backend)
        if self._backend_traced:
            backend.trace = trace  # type: ignore[attr-defined]
        self._initialised = False
        self._segments: list[TimelineSegment] = []

    def _span(self, name: str, **attributes):
        if self.trace is None:
            return nullcontext()
        return self.trace.span(name, category="sim", **attributes)

    def _host(self, detail: str, seconds: float) -> None:
        if self.trace is not None:
            self.trace.add_span(detail, seconds, category="host")

    def _record(self, evaluation: ForceEvaluation) -> ForceEvaluation:
        """Queue an evaluation's segments (leaf spans if untraced)."""
        if self.trace is not None and not self._backend_traced:
            for seg in evaluation.segments:
                self.trace.add_span(
                    seg.detail or seg.tag, seg.seconds, category=seg.tag
                )
        self._segments.extend(evaluation.segments)
        return evaluation

    def _drain(self) -> list[TimelineSegment]:
        segments, self._segments = self._segments, []
        return segments

    def _start(self) -> None:
        s = self.system
        evaluation = self._record(self.backend.compute(s.pos, s.vel, s.mass))
        s.acc = evaluation.acc
        s.jerk = evaluation.jerk

    def _steps(self, n_cycles: int) -> Iterable[object]:
        return range(n_cycles)

    def _step(self) -> tuple[float, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    def initialise(self) -> list[TimelineSegment]:
        """Initial force evaluation (and host init cost)."""
        with self._span("initialise"):
            segments: list[TimelineSegment] = []
            if self.host_cost.init_seconds > 0.0:
                segments.append(
                    TimelineSegment("host", self.host_cost.init_seconds, "init")
                )
                self._host("init", self.host_cost.init_seconds)
            self._start()
            segments.extend(self._drain())
            self._initialised = True
        return segments

    def run(self, n_cycles: int) -> SimulationResult:
        """Advance ``n_cycles * dt`` of physical time and return the result."""
        if n_cycles <= 0:
            raise ConfigurationError(f"n_cycles must be positive, got {n_cycles}")
        per_particle = self.host_cost.seconds_per_particle_cycle
        with self._span(
            "simulation.run", n=self.system.n, n_cycles=n_cycles,
            backend=self.backend.name, integrator=self.name,
        ):
            timeline = [] if self._initialised else self.initialise()
            records: list[CycleRecord] = []
            for index, _ in enumerate(self._steps(n_cycles)):
                # host halves priced per phase: the predictor touches
                # every particle, the corrector only those it corrects
                predict_s = 0.5 * per_particle * self.system.n
                with self._span(self.step_span, index=index) as step_span:
                    self._host("predict", predict_s)
                    # the step's host arithmetic runs in here too, but
                    # modelled time prices it as the predict/correct leaves
                    with self._span("force", backend=self.backend.name):
                        dt, n_corrected = self._step()
                    correct_s = 0.5 * per_particle * n_corrected
                    self._host("correct", correct_s)
                    if step_span is not None:
                        step_span.attributes["dt"] = dt
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
                    dt=dt,
                    model_seconds=sum(seg.seconds for seg in segments),
                ))
        return SimulationResult(
            system=self.system,
            cycles=records,
            timeline=timeline,
            backend_name=self.backend.name,
        )


class HermiteIntegrator(Driver):
    """Shared-step Hermite integration of a particle system over a backend.

    Registered as ``"hermite"`` in :mod:`repro.core.integrators`;
    :class:`Simulation` resolves any registered integrator and builds
    this one by default.

    Parameters
    ----------
    system:
        Initial conditions; mutated in place as the run advances.
    backend:
        Force backend (reference, CPU model, or Wormhole offload).
    dt:
        Fixed shared timestep; mutually exclusive with ``timestep``.
    timestep:
        Adaptive :class:`SharedTimestep` scheme.  Its startup criterion
        sets the first step after :meth:`initialise`; every later step,
        in this ``run`` or the next, uses the full criterion.
    host_cost:
        Modelled cost of host-resident work (zero for pure-physics runs).
    trace:
        Optional :class:`~repro.observability.Trace` ("Scope").  When
        given, the run narrates itself as spans — ``simulation.run`` /
        ``initialise`` / per-cycle ``cycle`` with ``predict`` / ``force``
        / ``correct`` children — and the trace is handed to the backend
        when it accepts one (``TTForceBackend`` then adds Metalium and
        per-core device spans underneath ``force``).  ``None`` (the
        default) costs the run nothing.
    """

    name = "hermite"

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        dt: float | None = None,
        timestep: SharedTimestep | None = None,
        host_cost: HostCostModel = HostCostModel(),
        trace: "Trace | None" = None,
    ) -> None:
        if (dt is None) == (timestep is None):
            raise ConfigurationError(
                "exactly one of dt= or timestep= must be given"
            )
        if dt is not None and (dt <= 0 or not np.isfinite(dt)):
            raise ConfigurationError(f"dt must be positive and finite, got {dt}")
        super().__init__(system, backend, host_cost=host_cost, trace=trace)
        self.fixed_dt = dt
        self.timestep = timestep
        self._corrected = False
        self._snap = np.zeros_like(system.pos)
        self._crackle = np.zeros_like(system.pos)

    def _start(self) -> None:
        super()._start()
        self._corrected = False

    def _choose_dt(self) -> float:
        if self.fixed_dt is not None:
            return self.fixed_dt
        assert self.timestep is not None
        s = self.system
        if not self._corrected:
            return self.timestep.first(s.acc, s.jerk)
        return self.timestep.next(s.acc, s.jerk, self._snap, self._crackle)

    def _step(self) -> tuple[float, int]:
        s = self.system
        dt = self._choose_dt()
        # predictor and corrector: host, float64; the force evaluation
        # between them is the offloaded part
        pos_p, vel_p = predict(s.pos, s.vel, s.acc, s.jerk, dt)
        evaluation = self._record(self.backend.compute(pos_p, vel_p, s.mass))
        step = correct(
            s.pos, s.vel, s.acc, s.jerk, evaluation.acc, evaluation.jerk, dt
        )
        s.pos, s.vel, s.acc, s.jerk = step.pos, step.vel, step.acc, step.jerk
        self._snap, self._crackle = step.snap, step.crackle
        self._corrected = True
        s.time += dt
        s.check_finite()
        return dt, s.n


class Simulation:
    """A thin driver over the integrator registry.

    ``Simulation(system, backend, dt=...)`` behaves exactly as it always
    did (shared-step Hermite, :class:`HermiteIntegrator` on the
    :class:`Driver` loop), and ``integrator=`` selects any scheme
    registered in :mod:`repro.core.integrators` — a name
    (``"block-hermite"``) or an
    :class:`~repro.core.integrators.IntegratorSpec` with options.  The
    chosen integrator is built once in the constructor; ``initialise``
    and ``run`` delegate to it.

    ``timestep=`` (an explicit :class:`SharedTimestep` object) cannot
    travel through the registry's typed options, so it remains a direct
    path to the Hermite scheme and is rejected for any other integrator.
    """

    def __init__(
        self,
        system: ParticleSystem,
        backend: ForceBackend,
        *,
        dt: float | None = None,
        timestep: SharedTimestep | None = None,
        host_cost: HostCostModel = HostCostModel(),
        trace: "Trace | None" = None,
        integrator: "object | str | None" = None,
    ) -> None:
        # lazy: integrators imports this module (HermiteIntegrator)
        from .integrators import IntegratorSpec, make_integrator

        spec = IntegratorSpec.from_dict(
            "hermite" if integrator is None else integrator
        )
        if timestep is not None:
            if spec.name != "hermite":
                raise ConfigurationError(
                    "timestep= is only valid with the hermite integrator"
                )
            # HermiteIntegrator itself enforces dt/timestep exclusivity
            self._impl = HermiteIntegrator(
                system, backend, dt=dt, timestep=timestep,
                host_cost=host_cost, trace=trace,
            )
        else:
            self._impl = make_integrator(
                spec, system, backend, dt=dt, adaptive=False,
                host_cost=host_cost, trace=trace,
            )

    @property
    def system(self) -> ParticleSystem:
        """The particle system being integrated."""
        return self._impl.system

    @property
    def backend(self) -> ForceBackend:
        """The force backend the integrator evaluates on."""
        return self._impl.backend

    @property
    def trace(self):
        """The attached Scope trace, or None."""
        return self._impl.trace

    @property
    def host_cost(self) -> HostCostModel:
        """The host-side cost model charged per cycle."""
        return self._impl.host_cost

    @property
    def integrator_name(self) -> str:
        """Registry name of the scheme this driver delegates to."""
        return self._impl.name

    # snapshot-resume contract: a system reloaded with its acc/jerk
    # arrays must be able to skip the initial force evaluation (the
    # stored acc is the predictor-stage value, so re-evaluating would
    # not be bit-identical) — the flag lives on the inner driver
    @property
    def _initialised(self) -> bool:
        return self._impl._initialised

    @_initialised.setter
    def _initialised(self, value: bool) -> None:
        self._impl._initialised = value

    def initialise(self) -> list[TimelineSegment]:
        """Initial force evaluation (and host init cost)."""
        return self._impl.initialise()

    def run(self, n_cycles: int) -> SimulationResult:
        """Advance ``n_cycles`` cycles and return the result."""
        return self._impl.run(n_cycles)
