"""RunSpec: one declarative object describing a whole simulation run.

Before this existed, every entry point plumbed its own ad-hoc argument
bundle — ``cli.py`` carried an argparse namespace through each subcommand,
``telemetry/campaign.py`` had :class:`JobSpec`, and each benchmark script
hardcoded its own N/seed/softening — and the trace/lint/sanitize switches
were resolved from environment variables at three different depths of the
stack.  :class:`RunSpec` is the single declarative form: problem size and
integration parameters, the :class:`~repro.backends.registry.BackendSpec`
to run on, and the observability flags, with a JSON round-trip (campaign
schedules and checkpoints can persist it) and **one** env/CLI resolution
path:

* :meth:`RunSpec.from_cli` builds a spec from the ``repro simulate``
  argparse namespace plus the environment — CLI values win, then
  ``REPRO_TRACE`` / ``REPRO_LINT`` / ``REPRO_SANITIZE`` fill the gaps;
* :meth:`RunSpec.environ_updates` is the inverse: the env-var settings a
  runner must export so the Metalium layer honours the spec's lint and
  sanitize choices.

A spec also names its *integrator* (:class:`~repro.core.integrators.
IntegratorSpec`) and *scenario* (:class:`~repro.core.scenarios.
ScenarioSpec`), both registry-addressable: :meth:`RunSpec.make_system`
realises the scenario for ``(n, seed)`` and :meth:`RunSpec.make_simulation`
builds the named integration scheme over the named backend.  All three
components go through one :class:`~repro.backends.registry.Registry`
loop — normalisation, canonical identity and CLI filtering alike — and
the all-default spellings of the two later fields (hermite over a
Plummer sphere) are omitted from :meth:`canonical_dict` so pre-existing
cached identities survive the fields' introduction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cache
from typing import Any, Mapping

from ..config import env_flag, env_str
from ..errors import ConfigurationError
from .protocol import ForceBackend
from .registry import BACKENDS, Registry, make_backend

__all__ = ["RunSpec"]

#: Component field -> {CLI argument: option name}.  A CLI value reaches
#: a component only if its registered entry declares the option:
#: ``--threads`` never reaches the device backend, ``--dt-max`` never
#: reaches leapfrog.  ``softening`` is deliberately absent:
#: :attr:`RunSpec.softening` is its single carrier, injected by
#: :meth:`RunSpec.make_backend`.
_CLI_OPTIONS: dict[str, dict[str, str]] = {
    "backend": {"cores": "cores", "threads": "threads", "cards": "cards",
                "format": "fmt", "workers": "workers", "mesh": "mesh",
                "cutoff": "cutoff"},
    "integrator": {"eta": "eta", "dt_max": "dt_max",
                   "block_levels": "block_levels"},
    "scenario": {},
}


@cache
def _registries() -> tuple[tuple[str, Registry, Any], ...]:
    """(component field, its registry, omitted default) triples.

    A field whose resolution equals its omitted default (``None``: never
    omitted) is left out of :meth:`RunSpec.canonical_dict`, so identities
    cached before the integrator and scenario fields existed survive.
    ``repro.core`` sits above this module, so its registries are imported
    on first use and the triples are kept: construction and
    :meth:`RunSpec.canonical_hash` run on every service submit.
    """
    from ..core.integrators import INTEGRATORS, IntegratorSpec
    from ..core.scenarios import SCENARIOS, ScenarioSpec

    return (("backend", BACKENDS, None),
            ("integrator", INTEGRATORS, IntegratorSpec("hermite")),
            ("scenario", SCENARIOS, ScenarioSpec("plummer")))


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run."""

    n: int = 2048
    cycles: int = 10
    dt: float = 1e-3
    adaptive: bool = False
    softening: float = 0.0
    seed: int = 0
    #: The three registry components, each a name, a ``{name, options}``
    #: dict or a spec — normalised on construction to a
    #: :class:`~repro.backends.registry.BackendSpec`,
    #: :class:`~repro.core.integrators.IntegratorSpec` and
    #: :class:`~repro.core.scenarios.ScenarioSpec`.
    backend: Any = "tt"
    integrator: Any = "hermite"
    scenario: Any = "plummer"
    #: Scope trace output path (``None``: tracing off) — ``REPRO_TRACE``.
    trace_path: str | None = None
    #: pre-dispatch lint mode: off | warn | error — ``REPRO_LINT``.
    lint: str = "off"
    #: checked (sanitized) kernel execution — ``REPRO_SANITIZE``.
    sanitize: bool = False

    def __post_init__(self) -> None:
        for name, registry, _ in _registries():
            object.__setattr__(
                self, name, registry.spec_type.from_dict(getattr(self, name))
            )
        if self.n < 1:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        if self.cycles < 0:
            raise ConfigurationError(
                f"cycles must be >= 0, got {self.cycles}"
            )
        if self.lint not in ("off", "warn", "error"):
            raise ConfigurationError(
                f"lint must be off|warn|error, got {self.lint!r}"
            )

    # -- JSON round-trip ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data = dict(vars(self))
        for name, _, _ in _registries():
            data[name] = data[name].to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"run spec must be a mapping, got {data!r}"
            )
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigurationError(
                f"run spec does not accept key(s) {unknown}"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    # -- canonical identity ------------------------------------------------

    def canonical_dict(self) -> dict[str, Any]:
        """The resolved, alias-free dict that defines this spec's identity.

        Two specs that describe the same run must canonicalise
        identically, however they were written down:

        * each component (backend, integrator, scenario) name is
          resolved through its registry, so the ``device`` alias and
          ``tt`` collapse to one name;
        * component options are resolved against the registered
          :class:`~repro.backends.registry.OptionSpec` table — defaults
          filled in and values coerced — so ``{}`` and an explicit
          ``{"cores": 8}`` are the same spec (unknown options raise);
        * ``trace_path`` is excluded: where a host writes its trace says
          nothing about *what* is being computed.

        ``lint``/``sanitize`` stay in: they change how the run executes
        (checked vs unchecked), and a result cache must not serve a
        sanitized request from an unsanitized run.

        The ``integrator``/``scenario`` entries are *omitted entirely*
        when they resolve to the historical behaviour (shared-step
        hermite over a default Plummer sphere), so every pre-existing
        cached identity survives the introduction of the two fields.
        """
        data = self.to_dict()
        del data["trace_path"]
        for name, registry, default in _registries():
            resolved = registry.canonical(getattr(self, name))
            if default is not None and resolved == registry.canonical(default):
                del data[name]
            else:
                data[name] = resolved
        return data

    def canonical_hash(self) -> str:
        """Stable sha256 over the canonical JSON form of this spec.

        The JSON serialisation is fully canonical — sorted keys, no
        whitespace — so the hash is independent of dict insertion order,
        alias spelling, and defaulted-vs-explicit options.  This is the
        dedupe/cache key of the service layer; its stability across
        releases is pinned by a golden-hash test.
        """
        payload = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- env / CLI resolution (the single path) ----------------------------

    @classmethod
    def from_cli(cls, args: Any, env: Mapping[str, str] | None = None,
                 **overrides: Any) -> "RunSpec":
        """Resolve a spec from a ``repro simulate``-shaped namespace + env.

        Component options are filtered against their registries: only
        the knobs the chosen backend or integrator actually declares are
        forwarded (``--threads`` never reaches the device backend,
        ``--cores`` never reaches the CPU one), so one flat CLI surface
        serves every registered component.  Every component is resolved
        here, so a bad name or option fails at the CLI boundary.
        """
        components: dict[str, Any] = {}
        for field_name, registry, _ in _registries():
            name = getattr(args, field_name, None) or getattr(cls, field_name)
            declared = {o.name for o in registry.entry(name).options}
            options = {
                option: value
                for arg, option in _CLI_OPTIONS[field_name].items()
                if option in declared
                and (value := getattr(args, arg, None)) is not None
            }
            components[field_name] = registry.spec_type(name, options)
            # fail fast: a non-power-of-two --dt-max exits 2, not mid-run
            registry.resolve(components[field_name])
        spec = cls(
            n=getattr(args, "n", cls.n),
            cycles=getattr(args, "cycles", cls.cycles),
            dt=getattr(args, "dt", cls.dt),
            adaptive=getattr(args, "adaptive", False),
            softening=getattr(args, "softening", cls.softening),
            seed=getattr(args, "seed", cls.seed),
            **components,
            **overrides,
        )
        return spec.resolved_from_env(env) if env is not None else spec

    def resolved_from_env(self, env: Mapping[str, str]) -> "RunSpec":
        """Fill unset observability flags from the environment.

        Boolean variables go through :func:`repro.config.env_flag`, so
        ``REPRO_SANITIZE=false`` / ``off`` / ``no`` really mean *off* —
        historically any non-empty value other than ``"0"`` enabled the
        sanitizer, which turned an explicit opt-out into an opt-in.
        """
        updates: dict[str, Any] = {}
        trace = env_str(env, "REPRO_TRACE")
        if self.trace_path is None and trace:
            updates["trace_path"] = trace
        lint = env_str(env, "REPRO_LINT")
        if self.lint == "off" and lint:
            updates["lint"] = lint
        if not self.sanitize and env_flag(env.get("REPRO_SANITIZE"),
                                          name="REPRO_SANITIZE"):
            updates["sanitize"] = True
        return replace(self, **updates) if updates else self

    def environ_updates(self) -> dict[str, str]:
        """Env-var exports that make the Metalium layer honour this spec."""
        updates: dict[str, str] = {}
        if self.lint != "off":
            updates["REPRO_LINT"] = self.lint
        if self.sanitize:
            updates["REPRO_SANITIZE"] = "1"
        return updates

    # -- realisation -------------------------------------------------------

    def with_backend(self, name: str, **options: Any) -> "RunSpec":
        return replace(self, backend={"name": name, "options": options})

    def make_backend(self, **extra: Any) -> ForceBackend:
        """Realise the backend, forcing the spec's softening."""
        declared = {o.name for o in BACKENDS.entry(self.backend.name).options}
        if "softening" in declared and "softening" not in self.backend.options:
            extra.setdefault("softening", self.softening)
        return make_backend(self.backend, **extra)

    def with_integrator(self, name: str, **options: Any) -> "RunSpec":
        return replace(self, integrator={"name": name, "options": options})

    def with_scenario(self, name: str, **options: Any) -> "RunSpec":
        return replace(self, scenario={"name": name, "options": options})

    def make_system(self):
        """The initial conditions this spec describes, via the registry."""
        from ..core.scenarios import make_scenario

        return make_scenario(self.scenario, self.n, self.seed)

    def make_simulation(self, system=None, backend=None, *, trace=None,
                        host_cost=None):
        """The named integration scheme, realised and ready to run.

        Returns an object satisfying the
        :class:`~repro.core.integrators.Integrator` protocol —
        ``initialise()`` plus ``run(n_cycles)`` — built by
        :func:`~repro.core.integrators.make_integrator` from this spec's
        integrator name and options over this spec's backend.
        """
        from ..core.integrators import make_integrator

        system = system if system is not None else self.make_system()
        backend = backend if backend is not None else self.make_backend()
        return make_integrator(
            self.integrator, system, backend, dt=self.dt,
            adaptive=self.adaptive, host_cost=host_cost, trace=trace,
        )
