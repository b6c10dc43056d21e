"""First-class scenarios: registry-addressable initial conditions.

``RunSpec.make_system`` used to hardcode ``plummer(n, seed)``; every
other generator in :mod:`repro.core.initial_conditions` was reachable
only by writing a script.  A :class:`ScenarioSpec` — a name plus typed
options — is the declarative form of an initial-condition family,
shaped like :class:`~repro.backends.registry.BackendSpec` and
:class:`~repro.core.integrators.IntegratorSpec`:
:func:`make_scenario` realises it into a
:class:`~repro.core.particles.ParticleSystem` for a given ``(n, seed)``,
and :func:`register_scenario` lets new families join the CLI choices,
RunSpec round-trips, and the per-scenario energy gates.

The six built-ins map one to one onto the generators; ``plummer``,
``uniform_sphere`` and ``hernquist`` are registered as-is.  ``n`` and
``seed`` come from the run, not the scenario options, so the same spec
scales across problem sizes; the two-cluster scenario splits ``n``
between the clusters, and the binary scenario is fixed at two bodies
(``n`` and ``seed`` are ignored — the orbit is deterministic).
"""

from __future__ import annotations

from typing import Any

from ..backends.registry import ComponentSpec, OptionSpec, Registry
from ..errors import ConfigurationError, UnknownScenarioError
from .initial_conditions import (
    binary,
    cluster_collision,
    cluster_with_binary,
    hernquist,
    plummer,
    uniform_sphere,
)
from .particles import ParticleSystem

__all__ = [
    "ScenarioSpec",
    "SCENARIOS",
    "register_scenario",
    "make_scenario",
    "scenario_names",
    "scenario_entry",
    "scenario_choices_help",
]


class ScenarioSpec(ComponentSpec):
    """A scenario, declaratively: registry name + option overrides."""

    kind = "scenario"


SCENARIOS = Registry(ScenarioSpec, UnknownScenarioError)

register_scenario = SCENARIOS.register
scenario_names = SCENARIOS.names
scenario_entry = SCENARIOS.entry
scenario_choices_help = SCENARIOS.choices_help


def make_scenario(
    spec: "ScenarioSpec | str", n: int, seed: int, **extra: Any
) -> ParticleSystem:
    """Realise a :class:`ScenarioSpec` (or bare name) for ``(n, seed)``.

    Factories are called as ``factory(n, seed=seed, **options)``, so a
    generator with a keyword ``seed`` registers directly.
    """
    entry, options = SCENARIOS.resolve(spec, **extra)
    return entry.factory(n, seed=seed, **options)


# --------------------------------------------------------------------------
# Built-in scenarios (one per initial_conditions generator)
# --------------------------------------------------------------------------


def _make_binary(n, seed, *, mass_ratio, semi_major_axis, eccentricity,
                 total_mass):
    # deterministic two-body orbit: n and seed are intentionally unused
    return binary(mass_ratio=mass_ratio, semi_major_axis=semi_major_axis,
                  eccentricity=eccentricity, total_mass=total_mass)


def _make_cluster_collision(n, seed, *, mass_ratio, separation,
                            impact_parameter, relative_speed):
    n1 = n // 2
    return cluster_collision(
        n1, n - n1, seed=seed, mass_ratio=mass_ratio, separation=separation,
        impact_parameter=impact_parameter, relative_speed=relative_speed,
    )


def _make_cluster_with_binary(n, seed, *, binary_mass_fraction,
                              semi_major_axis, eccentricity):
    if n < 4:
        raise ConfigurationError(
            f"cluster_with_binary needs n >= 4 (2 binary members + "
            f"background), got {n}"
        )
    return cluster_with_binary(
        n - 2, seed=seed, binary_mass_fraction=binary_mass_fraction,
        semi_major_axis=semi_major_axis, eccentricity=eccentricity,
    )


register_scenario(
    "plummer", plummer,
    description="equal-mass Plummer sphere in Henon units (the default)",
    options=(
        OptionSpec("virial_scaled", bool, True,
                   "rescale to exact virial equilibrium"),
        OptionSpec("cutoff_radius", float, 22.8,
                   "outer truncation radius"),
    ),
)
register_scenario(
    "uniform_sphere", uniform_sphere,
    description="homogeneous sphere (cold collapse at virial_ratio 0)",
    options=(
        OptionSpec("radius", float, 1.0, "sphere radius"),
        OptionSpec("virial_ratio", float, 0.0,
                   "-T/W kinetic support (0 = cold)"),
    ),
)
register_scenario(
    "hernquist", hernquist,
    description="Hernquist sphere with isotropic Jeans velocities",
    options=(
        OptionSpec("scale_radius", float, 0.55, "Hernquist scale radius"),
    ),
)
register_scenario(
    "binary", _make_binary,
    description="two-body Keplerian binary at apoapsis (n/seed ignored)",
    options=(
        OptionSpec("mass_ratio", float, 1.0, "m1/m2"),
        OptionSpec("semi_major_axis", float, 0.01, "orbit semi-major axis"),
        OptionSpec("eccentricity", float, 0.0, "orbit eccentricity"),
        OptionSpec("total_mass", float, 1.0, "combined mass"),
    ),
)
register_scenario(
    "cluster_collision", _make_cluster_collision,
    description="two Plummer clusters on a collision course "
                "(n split between them)",
    options=(
        OptionSpec("mass_ratio", float, 1.0, "M1/M2"),
        OptionSpec("separation", float, 6.0, "initial centre separation"),
        OptionSpec("impact_parameter", float, 0.5, "perpendicular offset"),
        OptionSpec("relative_speed", float, None,
                   "approach speed (default: parabolic)"),
    ),
)
register_scenario(
    "cluster_with_binary", _make_cluster_with_binary,
    description="hard binary at the centre of a Plummer background "
                "(n includes the pair)",
    options=(
        OptionSpec("binary_mass_fraction", float, 0.02,
                   "binary share of the total mass"),
        OptionSpec("semi_major_axis", float, 0.005, "binary semi-major axis"),
        OptionSpec("eccentricity", float, 0.0, "binary eccentricity"),
    ),
)
