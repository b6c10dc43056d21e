"""The benchmark's workloads and how each one turns a seed into inputs.

Every workload does a fixed amount of work per run, sized from
``--seconds`` by a nominal per-unit host cost, so a slower or faster
program does the *same* work and ``model_s`` is comparable between
commits.  See README.md for why each workload exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimWorkload:
    """One simulation configuration, stepped for a fixed number of units."""

    name: str
    why: str
    n: int
    scenario: str
    integrator: str
    backend: str
    options: tuple[tuple[str, object], ...]
    #: shared step (hermite), or the physical time of one nominal unit
    #: (block-hermite, whose whole window is a single run(1) call)
    dt: float
    #: nominal host seconds of one unit
    unit_s: float
    #: set-ups per run, each followed by its own timed window; setup_s is
    #: their median and the latency samples of all windows are pooled
    setup_reps: int
    #: "direct": max-error gates (acc 5e-4, jerk 2e-3); "pm": RMS <= 1e-2
    gate: str
    #: one fixed realisation, the seed picks one of its 48 exact axis
    #: permutations/reflections (see README.md, block-cluster)
    fixed_realisation: bool = False
    #: block-hermite: latency samples are the host seconds of
    #: each slice of this much physical time (see README.md)
    slice_dt: float | None = None

    kind = "sim"

    def units(self, seconds: float) -> int:
        """Units per window: ``seconds`` of nominal work over all windows."""
        return max(1, round(seconds / (self.unit_s * self.setup_reps)))

    def schedule(self, seconds: float) -> tuple[float, int]:
        """(RunSpec dt, run(1) calls per window) for a ``seconds`` run."""
        if self.slice_dt is not None:
            # one window, one synchronisation at its end: BlockHermiteDriver
            # resets every clock when it synchronises, so shorter run(1)
            # calls would never update particles on longer levels
            return self.units(seconds) * self.dt, 1
        return self.dt, self.units(seconds)

    def run_spec(self, seed: int, seconds: float):
        from repro.backends import BackendSpec, RunSpec

        return RunSpec(
            n=self.n, dt=self.schedule(seconds)[0],
            seed=0 if self.fixed_realisation else seed,
            backend=BackendSpec(self.backend, dict(self.options)),
            integrator=self.integrator, scenario=self.scenario,
            trace_path=None, lint="off", sanitize=False,
        )

    def transform(self, system, seed: int) -> None:
        """Apply the seed's exact symmetry to a fixed realisation."""
        if not self.fixed_realisation:
            return
        perm, signs = _symmetry(seed)
        system.pos = np.ascontiguousarray(system.pos[:, perm] * signs)
        system.vel = np.ascontiguousarray(system.vel[:, perm] * signs)


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed loop of clients against an in-process JobServer."""

    name: str
    why: str
    n_cards: int
    clients: int
    job_n: int
    job_cycles: int
    popular: int
    #: share of submissions drawn from the popular set
    repeat_share: float
    #: nominal host seconds per job (sizes the fixed job count)
    job_s: float
    setup_reps: int

    kind = "service"

    def jobs(self, seconds: float) -> int:
        return max(self.popular, round(seconds / self.job_s))

    def job_specs(self, seed: int, count: int):
        """The submission sequence: popular repeats mixed with unique specs."""
        from repro.backends import BackendSpec, RunSpec

        rng = np.random.default_rng(seed)
        seeds = rng.choice(1 << 30, size=count + self.popular + 1,
                           replace=False)

        def spec(s):
            return RunSpec(n=self.job_n, cycles=self.job_cycles, seed=int(s),
                           backend=BackendSpec("tt"), trace_path=None,
                           lint="off", sanitize=False)

        popular = [spec(s) for s in seeds[: self.popular]]
        unique = iter(seeds[self.popular + 1:])
        picks = rng.random(count) < self.repeat_share
        which = rng.integers(self.popular, size=count)
        jobs = [popular[w] if p else spec(next(unique))
                for p, w in zip(picks, which)]
        return spec(seeds[self.popular]), jobs


def _symmetry(seed: int):
    """One of the 48 signed axis permutations (exact in floating point)."""
    perm = list(itertools.permutations(range(3)))[seed % 6]
    bits = (seed // 6) % 8
    signs = np.array([-1.0 if bits >> k & 1 else 1.0 for k in range(3)])
    return list(perm), signs


WORKLOADS = {
    w.name: w for w in (
        SimWorkload(
            name="direct-plummer",
            why="full O(N^2) tt evaluation sharded over 2 cards: native "
                "tile kernel, charge walk, shard split and merge",
            n=8192, scenario="plummer", integrator="hermite", backend="tt",
            options=(("cards", 2), ("workers", "serial"),
                     ("engine", "batched")),
            dt=1e-3, unit_s=0.125, setup_reps=3, gate="direct",
        ),
        SimWorkload(
            name="block-cluster",
            why="block-hermite subset path: tiny active blocks still pay "
                "whole covering i-tiles and per-subset program builds",
            n=8192, scenario="cluster_with_binary",
            integrator="block-hermite", backend="tt",
            options=(("engine", "batched"),),
            dt=1.0 / 1024, unit_s=2.0, setup_reps=5, gate="direct",
            fixed_realisation=True, slice_dt=1.0 / 4096,
        ),
        SimWorkload(
            name="pm-uniform",
            why="tt-pm far field: near-field pairs and FFT charge walk, "
                "bypassing nbody_tt",
            n=4096, scenario="uniform_sphere", integrator="hermite",
            backend="tt-pm", options=(),
            dt=1e-3, unit_s=2.0, setup_reps=5, gate="pm",
        ),
        ServiceWorkload(
            name="service-mix",
            why="JobServer closed loop, 2 clients x 2 tenants: cache hits, "
                "misses, modelled replay and per-submit hashing; no physics",
            n_cards=4, clients=2, job_n=2048, job_cycles=2, popular=32,
            repeat_share=0.375, job_s=1.0 / 1000, setup_reps=101,
        ),
    )
}

