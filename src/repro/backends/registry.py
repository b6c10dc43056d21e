"""The backend registry: one place that owns "which backend, with which
options".

Before this layer existed, backend construction was copy-pasted with
divergent defaults across ``cli.py``, ``telemetry/campaign.py`` and every
``benchmarks/bench_*.py``.  Now a :class:`BackendSpec` — a name plus typed
options — is the *declarative* form of a backend, :func:`make_backend`
turns it into a live :class:`~repro.backends.protocol.ForceBackend`, and
:func:`register_backend` lets new engines join the same machinery the
built-ins use (CLI choices, campaign schedules, parity tests, and the CI
backend matrix all iterate :func:`backend_names`).

The machinery is generic: :class:`Registry` and :class:`ComponentSpec`
also back the integrator and scenario registries in :mod:`repro.core`.

Factories import their implementation lazily, so ``import repro.backends``
stays light and the import graph stays acyclic: the registry sits *above*
the competitors, while :mod:`repro.backends.protocol` sits below
``repro.core``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, ClassVar, Mapping

from ..errors import ConfigurationError, UnknownBackendError
from .protocol import ForceBackend

__all__ = [
    "ComponentSpec",
    "RegisteredComponent",
    "Registry",
    "BACKENDS",
    "BackendSpec",
    "OptionSpec",
    "register_backend",
    "make_backend",
    "backend_names",
    "backend_entry",
    "backend_choices_help",
]


@dataclass(frozen=True)
class OptionSpec:
    """One typed option a registered component accepts.

    ``validate`` is an optional domain check run *after* type coercion:
    it receives the coerced value and returns an error message (or
    ``None`` when the value is acceptable).  This is how per-option
    invariants — e.g. the block-Hermite ``dt_max`` must be a power of
    two — fail at spec-resolution time, before any simulation state is
    built.
    """

    name: str
    type: type
    default: Any
    help: str = ""
    validate: Callable[[Any], str | None] | None = None

    def coerce(self, value: Any) -> Any:
        """Validate (and gently coerce) one user-supplied option value.

        ints are accepted where floats are expected; strings are parsed
        for numeric and boolean options so env/CLI round-trips work; any
        other mismatch is a :class:`ConfigurationError` naming the
        option (:meth:`RegisteredComponent.resolve_options` prefixes the
        component that owns it).
        """
        coerced = self._coerce_type(value)
        if coerced is not None and self.validate is not None:
            problem = self.validate(coerced)
            if problem:
                raise ConfigurationError(
                    f"option {self.name!r} {problem}, got {coerced!r}"
                )
        return coerced

    def _coerce_type(self, value: Any) -> Any:
        if value is None or isinstance(value, self.type):
            # bool is an int subclass: don't let True sneak into int options
            if not (self.type is int and isinstance(value, bool)):
                return value
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            return float(value)
        if self.type is str and isinstance(value, enum.Enum) \
                and isinstance(value.value, str):
            # enum-valued options (DataFormat) flatten to their string form
            return value.value
        if isinstance(value, str):
            try:
                if self.type is int:
                    return int(value)
                if self.type is float:
                    return float(value)
                if self.type is bool:
                    if value.lower() in ("1", "true", "yes", "on"):
                        return True
                    if value.lower() in ("0", "false", "no", "off"):
                        return False
                    raise ValueError(value)
            except ValueError:
                pass
        raise ConfigurationError(
            f"option {self.name!r} expects {self.type.__name__}, "
            f"got {value!r}"
        )


@dataclass(frozen=True)
class ComponentSpec:
    """A registered component, declaratively: registry name + options.

    Subclasses only set :attr:`kind`.  Option values are validated when
    a :class:`Registry` resolves the spec, not at construction, so a
    spec can be built for a component registered later.
    """

    kind: ClassVar[str] = "component"

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str)
                and isinstance(self.options, Mapping)):
            raise ConfigurationError(
                f"{self.kind} spec needs a string name and an options "
                f"mapping, got {self.name!r} / {self.options!r}"
            )
        object.__setattr__(self, "options", dict(self.options))

    def with_options(self, **overrides: Any) -> "ComponentSpec":
        """A copy of this spec with extra/replaced options."""
        return type(self)(self.name, {**self.options, **overrides})

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping form of this spec."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Any) -> "ComponentSpec":
        """A spec from a spec, a bare name, or a ``{name, options}`` map.

        Anything else — outside input such as a service request body
        included — is a :class:`ConfigurationError`.
        """
        if isinstance(data, cls):
            return data
        if isinstance(data, str):
            return cls(data)
        if not isinstance(data, Mapping) or "name" not in data:
            raise ConfigurationError(
                f"{cls.kind} spec must be a name or a mapping with a "
                f"'name', got {data!r}"
            )
        return cls(data["name"], data.get("options", {}))

    def to_json(self) -> str:
        """Canonical JSON form of this spec."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ComponentSpec":
        """Parse a spec from its JSON form."""
        return cls.from_dict(json.loads(text))


class BackendSpec(ComponentSpec):
    """A force backend, declaratively: registry name + option overrides."""

    kind = "backend"


@dataclass(frozen=True)
class RegisteredComponent:
    """One registry entry: factory, typed options, and help text."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    options: tuple[OptionSpec, ...] = ()
    aliases: tuple[str, ...] = ()
    kind: str = "component"

    def resolve_options(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Defaults merged with validated overrides; unknown keys raise."""
        table = {o.name: o for o in self.options}
        unknown = sorted(str(key) for key in overrides if key not in table)
        if unknown:
            raise ConfigurationError(
                f"{self.kind} {self.name!r} does not accept option(s) "
                f"{unknown}; known: {sorted(table)}"
            )
        resolved = {o.name: o.default for o in self.options}
        for key, value in overrides.items():
            try:
                resolved[key] = table[key].coerce(value)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"{self.kind} {self.name!r} {exc}"
                ) from None
        return resolved


class Registry:
    """Name -> :class:`RegisteredComponent` for one kind of component.

    :data:`BACKENDS`, ``INTEGRATORS`` and ``SCENARIOS`` are instances.
    """

    def __init__(self, spec_type: type[ComponentSpec],
                 unknown_error: type[ConfigurationError]) -> None:
        self.spec_type = spec_type
        self.kind = spec_type.kind
        self._unknown_error = unknown_error
        self._entries: dict[str, RegisteredComponent] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        description: str = "",
        options: tuple[OptionSpec, ...] = (),
        aliases: tuple[str, ...] = (),
    ) -> RegisteredComponent:
        """Add a component; re-registering a name replaces it, so tests
        can shadow a built-in with an instrumented double."""
        if not name:
            raise ConfigurationError(f"{self.kind} name must be non-empty")
        entry = RegisteredComponent(
            name, factory, description, options, aliases, self.kind
        )
        self._entries[name] = entry
        for alias in aliases:
            self._aliases[alias] = name
        return entry

    def names(self) -> tuple[str, ...]:
        """All registered (canonical) names, sorted."""
        return tuple(sorted(self._entries))

    def entry(self, name: str) -> RegisteredComponent:
        """Lookup by canonical name or alias."""
        try:
            return self._entries[self._aliases.get(name, name)]
        except KeyError:
            raise self._unknown_error(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: "
                f"{', '.join(self.names())}"
            ) from None

    def choices_help(self) -> str:
        """One-line-per-entry help text, sorted by name."""
        return "; ".join(
            f"{name}: {self._entries[name].description}"
            for name in self.names()
        )

    def resolve(self, spec: Any, **extra: Any
                ) -> tuple[RegisteredComponent, dict[str, Any]]:
        """The entry a spec names and its resolved options.

        ``spec`` is anything :meth:`ComponentSpec.from_dict` accepts;
        ``extra`` options override the spec's.
        """
        spec = self.spec_type.from_dict(spec)
        entry = self.entry(spec.name)
        options = {**spec.options, **extra} if extra else spec.options
        return entry, entry.resolve_options(options)

    def canonical(self, spec: Any) -> dict[str, Any]:
        """Alias-free ``{name, options}`` with every default filled in."""
        entry, options = self.resolve(spec)
        return {"name": entry.name, "options": options}


BACKENDS = Registry(BackendSpec, UnknownBackendError)

_REGISTRY = BACKENDS._entries  # the live table; tests swap entries

register_backend = BACKENDS.register
backend_names = BACKENDS.names
backend_entry = BACKENDS.entry
backend_choices_help = BACKENDS.choices_help


def make_backend(spec: BackendSpec | str, **extra: Any) -> ForceBackend:
    """Realise a :class:`BackendSpec` (or bare name) into a live backend.

    ``extra`` options override the spec's (e.g. a forced softening).
    """
    entry, options = BACKENDS.resolve(spec, **extra)
    return entry.factory(**options)


# --------------------------------------------------------------------------
# Built-in backends
# --------------------------------------------------------------------------
#
# Factories import lazily: the registry stays importable from anywhere in
# the stack, and `import repro.backends` does not drag in the simulator.

_SOFTENING = OptionSpec("softening", float, 0.0, "Plummer softening length")


def _make_reference(*, softening: float) -> ForceBackend:
    from ..core.simulation import ReferenceBackend

    return ReferenceBackend(softening=softening)


def _make_cpu(*, threads: int, softening: float, noisy: bool) -> ForceBackend:
    from ..cpuref.reference import CPUForceBackend

    return CPUForceBackend(threads, softening=softening, noisy=noisy)


def _make_tt(*, cores, cards, softening, fmt, cb_buffering, engine, workers):
    from ..wormhole.dtypes import DataFormat

    fmt = DataFormat(fmt) if not isinstance(fmt, DataFormat) else fmt
    if cards < 1:
        raise ConfigurationError(f"cards must be >= 1, got {cards}")
    if cards == 1:
        # a single card has no shard fan-out; `workers` is meaningless
        from ..metalium.host_api import CreateDevice
        from ..nbody_tt.offload import TTForceBackend

        return TTForceBackend(
            CreateDevice(0), n_cores=cores, softening=softening,
            fmt=fmt, cb_buffering=cb_buffering, engine=engine,
        )
    from .sharded import ShardedTTBackend

    return ShardedTTBackend(
        cards, n_cores=cores, softening=softening, fmt=fmt,
        cb_buffering=cb_buffering, engine=engine, workers=workers,
    )


def _make_tt_ds(*, softening: float, cores: int) -> ForceBackend:
    from .variants import DSVariantBackend

    return DSVariantBackend(softening=softening, n_cores=cores)


def _make_tt_matmul(*, softening: float, cores: int) -> ForceBackend:
    from .variants import MatmulVariantBackend

    return MatmulVariantBackend(softening=softening, n_cores=cores)


def _make_tt_pm(*, mesh: int, cutoff: float, softening: float,
                cores: int) -> ForceBackend:
    from ..metalium.host_api import CreateDevice
    from ..nbody_pm.backend import PMForceBackend

    return PMForceBackend(
        CreateDevice(0), mesh=mesh, cutoff=cutoff, softening=softening,
        cores=cores,
    )


def _make_cpu_pm(*, mesh: int, cutoff: float, softening: float
                 ) -> ForceBackend:
    from ..nbody_pm.backend import PMForceBackend

    return PMForceBackend(
        mesh=mesh, cutoff=cutoff, softening=softening,
    )


#: Options shared by the Wormhole-offload family.  ``cores`` defaults to 8
#: — the single source of truth the CLI and every benchmark now share
#: (`repro simulate --cores` used 8 while benchmarks ranged 2..64).
_TT_OPTIONS = (
    OptionSpec("cores", int, 8, "Tensix cores per card"),
    OptionSpec("cards", int, 1, "n300 cards to shard i-blocks across"),
    _SOFTENING,
    OptionSpec("fmt", str, "float32", "device data format"),
    OptionSpec("cb_buffering", int, 2, "j-stream CB depth in page groups"),
    OptionSpec("workers", str, None,
               "host executor for the per-card fan-out when cards>1 "
               "(serial | thread | process; default: REPRO_SHARD_WORKERS "
               "or thread)"),
)

register_backend(
    "reference", _make_reference,
    description="float64 golden reference (no modelled device time)",
    options=(_SOFTENING,),
)
register_backend(
    "cpu", _make_cpu,
    description="mixed-precision MPI+OpenMP+AVX-512 reference model",
    options=(
        OptionSpec("threads", int, 32, "OpenMP threads"),
        _SOFTENING,
        OptionSpec("noisy", bool, False,
                   "apply the per-run duration noise of the paper's host"),
    ),
)
register_backend(
    "tt", _make_tt,
    description="Wormhole offload, batched block-dispatch engine "
                "(cards>1 shards i-blocks over the QSFP-DD ring)",
    options=_TT_OPTIONS + (
        OptionSpec("engine", str, None,
                   "execution engine override (batched | per-block; "
                   "default: REPRO_TT_ENGINE or batched)"),
    ),
    aliases=("device",),  # the CLI's historical name for the offload
)
# Kept as the bit-identity reference for the batched engine and the only
# engine whose programs move real CB traffic under the sanitizer (see
# docs/ARCHITECTURE.md).
register_backend(
    "tt-per-block", partial(_make_tt, engine="per-block"),
    description="Wormhole offload pinned to the original per-block "
                "in-band engine",
    options=_TT_OPTIONS,
)
register_backend(
    "tt-ds", _make_tt_ds,
    description="double-single ablation: every pairwise op in DS "
                "arithmetic, priced by DSCostModel",
    options=(
        _SOFTENING,
        OptionSpec("cores", int, 8, "Tensix cores the cost model assumes"),
    ),
)
#: Options shared by the particle-mesh family.  ``cutoff`` is in units of
#: the mesh spacing; 0 disables the short-range correction (pure PM, for
#: collisionless far-field runs).
_PM_OPTIONS = (
    OptionSpec("mesh", int, 32,
               "PM grid cells per axis (power of two in [32, 256])"),
    OptionSpec("cutoff", float, 5.0,
               "short-range cutoff in mesh spacings (0 = pure PM)"),
    _SOFTENING,
)

register_backend(
    "tt-pm", _make_tt_pm,
    description="particle-mesh far field on the Metalium FFT kernel set "
                "+ screened direct near field",
    options=_PM_OPTIONS + (
        OptionSpec("cores", int, 8, "Tensix cores per FFT pass"),
    ),
)
register_backend(
    "cpu-pm", _make_cpu_pm,
    description="particle-mesh reference: same split and grids, "
                "host-modelled FFT time",
    options=_PM_OPTIONS,
)
register_backend(
    "tt-matmul", _make_tt_matmul,
    description="tensor-FPU ablation: pair distances via Gram matmuls, "
                "priced by MatmulVariantModel",
    options=(
        _SOFTENING,
        OptionSpec("cores", int, 8, "Tensix cores the cost model assumes"),
    ),
)
