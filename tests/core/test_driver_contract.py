"""The driver contract every registered integration scheme keeps.

Each registered integrator (plus adaptive shared-step Hermite) runs on
the one driver skeleton, so each must honour the same guarantees:

* ``k`` calls of ``run(1)`` equal one ``run(k)`` bit for bit — state,
  ``system.time``, timeline and cycle records — so a run can be chunked
  (an example printing progress, a service checkpoint) without changing
  its physics;
* a fixed-``dt`` run ends at exactly the start time plus ``k * dt``;
* attaching a trace changes nothing but the trace;
* every step span has exactly the children ``predict``, ``force`` and
  ``correct``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_backend
from repro.core import HostCostModel, integrator_names, make_integrator, plummer
from repro.observability import Trace

#: (integrator, extra make_integrator kwargs) for every registered scheme
SCHEMES = [(name, {}) for name in sorted(integrator_names())] + [
    ("hermite", {"adaptive": True}),
]
SCHEME_IDS = [
    name + ("-adaptive" if extra else "") for name, extra in SCHEMES
]
BACKENDS = [("reference", {}), ("tt", {"cores": 2})]
BACKEND_IDS = [name for name, _ in BACKENDS]

#: a power of two, so t0 + k * dt is exact in binary
DT = 2.0**-10
#: not a multiple of the block hierarchy's top step: the window ends
#: between block times
T0 = 0.25 + 3 * DT
K = 8
HOST = HostCostModel(seconds_per_particle_cycle=1e-6, init_seconds=0.5)


def _driver(scheme, backend, *, host_cost=HOST, trace=None):
    name, extra = scheme
    backend_name, options = backend
    system = plummer(64, seed=5)
    system.time = T0
    return make_integrator(
        name, system, make_backend(backend_name, **options), dt=DT,
        host_cost=host_cost, trace=trace, **extra,
    )


def _runs(sim, chunks):
    """Initialise, then run the chunk sizes in turn; merged results."""
    timeline = list(sim.initialise())
    records = []
    for k in chunks:
        result = sim.run(k)
        timeline += result.timeline
        # index restarts with every run; the rest must line up
        records += [(c.time, c.dt, c.model_seconds) for c in result.cycles]
    return timeline, records


def _assert_same_state(a, b):
    for field in ("pos", "vel", "acc", "jerk"):
        np.testing.assert_array_equal(
            getattr(a, field), getattr(b, field), err_msg=field
        )
    assert a.time == b.time


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
class TestDriverContract:
    def test_split_runs_match_one_run(self, scheme, backend):
        whole = _driver(scheme, backend)
        split = _driver(scheme, backend)
        assert _runs(whole, [K]) == _runs(split, [1] * K)
        _assert_same_state(whole.system, split.system)

    def test_fixed_dt_run_ends_at_start_plus_k_dt(self, scheme, backend):
        if scheme[1].get("adaptive"):
            pytest.skip("adaptive steps have no fixed dt")
        for chunks in ([K], [1] * K):
            sim = _driver(scheme, backend)
            _runs(sim, chunks)
            assert sim.system.time == T0 + K * DT

    def test_traced_matches_untraced(self, scheme, backend):
        trace = Trace()
        traced = _driver(scheme, backend, trace=trace)
        plain = _driver(scheme, backend)
        timeline, records = _runs(traced, [3, 5])
        assert (timeline, records) == _runs(plain, [3, 5])
        _assert_same_state(traced.system, plain.system)
        assert trace.now == pytest.approx(
            sum(seg.seconds for seg in timeline), abs=1e-12
        )

    @pytest.mark.parametrize("host_cost", [HostCostModel(), HOST],
                             ids=["no-host-cost", "host-cost"])
    def test_step_spans_are_predict_force_correct(
        self, scheme, backend, host_cost
    ):
        trace = Trace()
        sim = _driver(scheme, backend, host_cost=host_cost, trace=trace)
        sim.initialise()
        result = sim.run(K)
        (run,) = trace.find("simulation.run")
        steps = trace.children_of(run)
        assert len(steps) == len(result.cycles) > 0
        step_name = "block" if scheme[0] == "block-hermite" else "cycle"
        for step in steps:
            assert step.name == step_name
            names = [s.name for s in trace.children_of(step)]
            assert names == ["predict", "force", "correct"]
