"""The generic component registry behind backends, integrators, scenarios.

One :class:`Registry` / :class:`ComponentSpec` shape serves all three
kinds, so every check here runs over every registered entry of every
registry: defaults written out canonicalise like the bare name, the
canonical form survives JSON, malformed outside input fails with a
typed :class:`ConfigurationError`, and option errors name their owner.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import BackendSpec, RunSpec, make_backend
from repro.backends.registry import (
    BACKENDS,
    ComponentSpec,
    OptionSpec,
    Registry,
)
from repro.core.integrators import INTEGRATORS, IntegratorSpec
from repro.core.scenarios import SCENARIOS, ScenarioSpec
from repro.errors import ConfigurationError, UnknownScenarioError

#: RunSpec field -> the registry that resolves it.
REGISTRIES = {
    "backend": BACKENDS,
    "integrator": INTEGRATORS,
    "scenario": SCENARIOS,
}

ENTRIES = [
    (field_name, name)
    for field_name, registry in REGISTRIES.items()
    for name in registry.names()
]


def _all_defaults(registry: Registry, name: str) -> ComponentSpec:
    entry = registry.entry(name)
    return registry.spec_type(
        name, {option.name: option.default for option in entry.options}
    )


@pytest.mark.parametrize("field_name, name", ENTRIES)
class TestEveryEntry:
    def test_explicit_defaults_hash_like_the_bare_name(self, field_name,
                                                       name):
        spec = _all_defaults(REGISTRIES[field_name], name)
        explicit = RunSpec(**{field_name: spec})
        bare = RunSpec(**{field_name: name})
        assert explicit.canonical_hash() == bare.canonical_hash()

    def test_canonical_survives_json(self, field_name, name):
        registry = REGISTRIES[field_name]
        canonical = registry.canonical(name)
        assert json.loads(json.dumps(canonical)) == canonical
        spec = _all_defaults(registry, name)
        restored = registry.spec_type.from_json(spec.to_json())
        assert restored == spec
        assert registry.canonical(restored) == canonical

    def test_choices_help_mentions_the_entry(self, field_name, name):
        assert name in REGISTRIES[field_name].choices_help()


class TestComponentSpec:
    def test_kinds_share_one_shape_but_never_compare_equal(self):
        specs = [BackendSpec("x"), IntegratorSpec("x"), ScenarioSpec("x")]
        assert [s.kind for s in specs] == ["backend", "integrator",
                                           "scenario"]
        assert specs[0] != specs[1] != specs[2] != specs[0]

    @pytest.mark.parametrize("data", [
        "hernquist",
        {"name": "hernquist"},
        {"name": "hernquist", "options": {}},
        ScenarioSpec("hernquist"),
    ])
    def test_from_dict_accepts_every_spelling(self, data):
        assert ScenarioSpec.from_dict(data) == ScenarioSpec("hernquist")

    def test_with_options_keeps_the_kind(self):
        spec = IntegratorSpec("hermite").with_options(eta=0.01)
        assert spec == IntegratorSpec("hermite", {"eta": 0.01})

    def test_alias_canonicalises_to_the_registered_name(self):
        assert BACKENDS.canonical("device") == BACKENDS.canonical("tt")


class TestMalformedSpecs:
    """Outside input (a service request body) fails one typed way."""

    @pytest.mark.parametrize("data", [
        {"backend": 5},
        {"backend": "username"},
        {"backend": {"name": "tt", "options": [1, 2]}},
        {"backend": {"name": "tt", "options": "ab"}},
        {"backend": {"name": 7}},
        {"backend": {"options": {}}},
        {"integrator": {"name": "hermite", "options": 7}},
        {"integrator": ["hermite"]},
        {"scenario": {"name": "plummer", "options": None}},
        {"scenario": 3.5},
        [("n", 64)],
    ])
    def test_configuration_error(self, data):
        with pytest.raises(ConfigurationError):
            RunSpec.from_dict(data).canonical_hash()

    def test_bare_backend_name_accepted(self):
        spec = RunSpec.from_dict({"backend": "cpu"})
        assert spec.backend == BackendSpec("cpu")
        assert spec.canonical_hash() == RunSpec(
            backend=BackendSpec("cpu")
        ).canonical_hash()


class TestOptionErrorsNameTheirOwner:
    def test_backend(self):
        with pytest.raises(ConfigurationError,
                           match="backend 'tt' option 'cores' expects int"):
            make_backend("tt", cores=True)

    def test_integrator(self):
        with pytest.raises(
            ConfigurationError,
            match="integrator 'hermite' option 'eta' expects float",
        ):
            INTEGRATORS.entry("hermite").resolve_options({"eta": "fast"})

    def test_integrator_domain_check(self):
        with pytest.raises(
            ConfigurationError,
            match="integrator 'block-hermite' option 'dt_max' must be a "
                  "positive power of two",
        ):
            INTEGRATORS.entry("block-hermite").resolve_options(
                {"dt_max": 0.3}
            )

    def test_scenario(self):
        with pytest.raises(
            ConfigurationError,
            match="scenario 'hernquist' option 'scale_radius' expects float",
        ):
            SCENARIOS.resolve("hernquist", scale_radius="wide")


class TestRegistry:
    """A fresh instance behaves like the three built-in registries."""

    @pytest.fixture
    def registry(self):
        registry = Registry(ScenarioSpec, UnknownScenarioError)
        registry.register(
            "ring", lambda n, *, seed, radius: (n, seed, radius),
            description="a ring", aliases=("circle",),
            options=(OptionSpec("radius", float, 1.0),),
        )
        return registry

    def test_introspection(self, registry):
        assert registry.names() == ("ring",)
        assert registry.entry("circle") is registry.entry("ring")
        assert registry.choices_help() == "ring: a ring"

    def test_resolve_merges_extra_over_spec(self, registry):
        entry, options = registry.resolve(
            {"name": "circle", "options": {"radius": 2}}, radius="3"
        )
        assert entry.name == "ring"
        assert options == {"radius": 3.0}
        assert entry.factory(8, seed=1, **options) == (8, 1, 3.0)

    def test_unknown_name_raises_the_registry_error(self, registry):
        with pytest.raises(UnknownScenarioError, match="ring"):
            registry.entry("square")

    def test_empty_name_rejected(self, registry):
        with pytest.raises(ConfigurationError, match="non-empty"):
            registry.register("", lambda: None)
