"""Individual block-timestep Hermite integration.

Production direct N-body codes (the paper's class, e.g. NBODY6-style
integrators) do not advance every particle with a shared step: each
particle carries its own power-of-two timestep from a global hierarchy,
and at each block time only the *due* particles ("the active block")
receive new forces — an O(N_active * N) evaluation instead of O(N^2).
In a clustered system with a hard binary this reduces the work per unit
of physical time by orders of magnitude.

The scheme:

1. global time advances to the earliest due time  t = min_i (t_i + dt_i);
2. every particle is *predicted* to t (Taylor through the jerk);
3. the active block gets new forces from all predicted particles
   (:func:`~repro.core.forces.accel_jerk_on_targets`);
4. the Hermite corrector updates the active block, and each active
   particle draws a new Aarseth timestep, quantised down to a power of
   two that divides its current time (the block-synchronisation rule)
   and is allowed to at most double per update.

The force evaluation is pluggable (``partial_force``) so precision
experiments can substitute mixed-precision kernels; the default is the
double-precision golden reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, IntegratorError
from .forces import accel_jerk_on_targets
from .hermite import correct
from .particles import ParticleSystem
from .timestep import aarseth_timestep, initial_timestep

__all__ = ["BlockStats", "BlockHermiteIntegrator"]

#: The timestep hierarchy: dt = dt_max / 2^k, k in [0, MAX_LEVEL].
MAX_LEVEL = 40


@dataclass
class BlockStats:
    """Work accounting for a block-timestep run."""

    block_steps: int = 0
    particle_updates: int = 0
    force_pair_evaluations: int = 0
    level_histogram: dict[int, int] = field(default_factory=dict)

    def record_block(self, n_active: int, n_total: int,
                     levels: np.ndarray) -> None:
        """Accumulate the work done by one block update."""
        self.block_steps += 1
        self.particle_updates += n_active
        self.force_pair_evaluations += n_active * n_total
        for level in levels:
            key = int(level)
            self.level_histogram[key] = self.level_histogram.get(key, 0) + 1


class BlockHermiteIntegrator:
    """4th-order Hermite with individual power-of-two block timesteps."""

    def __init__(
        self,
        system: ParticleSystem,
        *,
        eta: float = 0.02,
        eta_start: float = 0.01,
        dt_max: float = 0.0625,
        softening: float = 0.0,
        block_levels: int = MAX_LEVEL,
        partial_force: Callable | None = None,
    ) -> None:
        if not (0 < eta and 0 < eta_start):
            raise ConfigurationError("eta values must be positive")
        if dt_max <= 0:
            raise ConfigurationError(f"dt_max must be positive, got {dt_max}")
        if math.frexp(dt_max)[0] != 0.5:
            # every block time is dt_max / 2^k; a non-power-of-two root
            # puts the whole hierarchy off the representable dyadic grid
            # and the _divides alignment test silently degrades
            raise ConfigurationError(
                f"dt_max must be a power of two (the hierarchy is "
                f"dt_max / 2^k), got {dt_max}"
            )
        if not (1 <= block_levels <= MAX_LEVEL):
            raise ConfigurationError(
                f"block_levels must be in [1, {MAX_LEVEL}], got {block_levels}"
            )
        self.system = system
        self.eta = eta
        self.eta_start = eta_start
        self.dt_max = dt_max
        self.block_levels = block_levels
        self.softening = softening
        self._force = partial_force if partial_force is not None else (
            lambda pos, vel, mass, targets: accel_jerk_on_targets(
                pos, vel, mass, targets, softening=self.softening
            )
        )
        self.stats = BlockStats()
        n = system.n
        #: global block time: the latest block update
        self.time = system.time
        self._t = np.zeros(n)          # last update time per particle
        self._level = np.zeros(n, dtype=np.intp)
        # each particle's own state at its _t; the system only receives
        # predictions of it (synchronise), so continuing never reads back
        # a synchronised system
        self._pos = np.zeros((n, 3))
        self._vel = np.zeros((n, 3))
        self._acc = np.zeros((n, 3))
        self._jerk = np.zeros((n, 3))
        self._snap = np.zeros((n, 3))
        self._crackle = np.zeros((n, 3))
        self._initialised = False

    # -- hierarchy helpers --------------------------------------------------

    def _dt_of_level(self, level) -> np.ndarray:
        return self.dt_max / np.exp2(level)

    def _level_for_dt(self, dt: np.ndarray, t_now: float,
                      current_level: np.ndarray) -> np.ndarray:
        """Quantise desired timesteps onto the hierarchy.

        Rules: never round up past the desired dt; a step may shrink
        arbitrarily but grow by at most one level per update, and growing
        is only allowed when the new (longer) step still divides the
        current time — the block-synchronisation condition.
        """
        if np.any(dt <= 0) or not np.all(np.isfinite(dt)):
            raise IntegratorError("non-positive or non-finite timestep")
        k = np.ceil(np.log2(self.dt_max / dt))
        k = np.maximum(k, 0).astype(np.intp)
        if np.any(k > self.block_levels):
            raise IntegratorError(
                f"timestep collapsed below dt_max/2^{self.block_levels}"
            )
        # growth limit: at most one level up (dt at most doubles)
        k = np.maximum(k, current_level - 1)
        # synchronisation: moving to a longer step requires the block time
        # to be aligned with it; otherwise stay at the current level
        wants_growth = k < current_level
        if np.any(wants_growth):
            dt_new = self._dt_of_level(k)
            misaligned = ~self._divides(dt_new, t_now)
            k = np.where(wants_growth & misaligned, current_level, k)
        return k

    @staticmethod
    def _divides(dt: np.ndarray, t: float) -> np.ndarray:
        ratio = t / dt
        return np.abs(ratio - np.round(ratio)) < 1e-9

    # -- integration ----------------------------------------------------------

    def initialise(self) -> None:
        """Compute initial forces and assign every particle a timestep level."""
        s = self.system
        self._pos, self._vel = s.pos.copy(), s.vel.copy()
        all_idx = np.arange(s.n)
        acc, jerk = self._force(self._pos, self._vel, s.mass, all_idx)
        self._acc, self._jerk = acc, jerk
        s.acc, s.jerk = acc.copy(), jerk.copy()
        dt = initial_timestep(acc, jerk, self.eta_start)
        dt = np.minimum(dt, self.dt_max)
        k = np.ceil(np.log2(self.dt_max / dt))
        self._level = np.maximum(k, 0).astype(np.intp)
        if np.any(self._level > self.block_levels):
            raise IntegratorError("initial timestep below the hierarchy floor")
        self.time = s.time
        self._t = np.full(s.n, s.time)
        self._initialised = True

    def next_block_time(self) -> float:
        """Earliest pending update time across all particles."""
        return float(np.min(self._t + self._dt_of_level(self._level)))

    def _predict(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Every particle's position and velocity Taylor-predicted to ``t``."""
        dt_all = (t - self._t)[:, None]
        pos_p = (
            self._pos + dt_all * self._vel + dt_all**2 / 2.0 * self._acc
            + dt_all**3 / 6.0 * self._jerk
        )
        vel_p = self._vel + dt_all * self._acc + dt_all**2 / 2.0 * self._jerk
        return pos_p, vel_p

    def step_block(self) -> int:
        """Advance one block; returns the number of updated particles.

        Moves ``system.time`` to the block time but writes no particle
        state: the system's pos/vel/acc/jerk stay as the last
        :meth:`synchronise` (or the initial state) left them until the
        next :meth:`synchronise`.
        """
        if not self._initialised:
            self.initialise()
        s = self.system
        due = self._t + self._dt_of_level(self._level)
        t_new = float(np.min(due))
        active = np.flatnonzero(np.abs(due - t_new) < 1e-12 * max(t_new, 1.0))
        if active.size == 0:  # pragma: no cover - defensive
            raise IntegratorError("no particles due at the next block time")

        # predict ALL particles to t_new (sources must be current)
        pos_p, vel_p = self._predict(t_new)
        acc1, jerk1 = self._force(pos_p, vel_p, s.mass, active)

        pos, vel, acc, jerk = self._pos, self._vel, self._acc, self._jerk
        dt_active = t_new - self._t[active]
        step = correct(
            pos[active], vel[active], acc[active], jerk[active],
            acc1, jerk1, float(dt_active[0]),
        ) if np.allclose(dt_active, dt_active[0]) else None
        if step is not None:
            pos[active] = step.pos
            vel[active] = step.vel
            acc[active] = step.acc
            jerk[active] = step.jerk
            self._snap[active] = step.snap
            self._crackle[active] = step.crackle
        else:
            # mixed dt in one block (possible after level changes): correct
            # particle groups per distinct dt
            for dt_value in np.unique(dt_active):
                sel = active[np.abs(dt_active - dt_value) < 1e-15]
                rows = np.searchsorted(active, sel)
                sub = correct(
                    pos[sel], vel[sel], acc[sel], jerk[sel],
                    acc1[rows], jerk1[rows], float(dt_value),
                )
                pos[sel] = sub.pos
                vel[sel] = sub.vel
                acc[sel] = sub.acc
                jerk[sel] = sub.jerk
                self._snap[sel] = sub.snap
                self._crackle[sel] = sub.crackle

        # non-active particles keep their state at their own t_i; only the
        # active ones move their clocks
        self._t[active] = t_new
        dt_want = aarseth_timestep(
            acc[active], jerk[active],
            self._snap[active], self._crackle[active], self.eta,
        )
        dt_want = np.minimum(dt_want, self.dt_max)
        self._level[active] = self._level_for_dt(
            dt_want, t_new, self._level[active]
        )
        self.time = t_new
        s.time = t_new
        self.stats.record_block(active.size, s.n, self._level[active])
        return int(active.size)

    def run_until(self, t_end: float, *, max_blocks: int = 10_000_000) -> None:
        """Advance block steps until the global time reaches ``t_end``.

        The integrator's state leaves each particle at its own last update
        time (standard for block schemes).  As with :meth:`step_block`,
        only ``system.time`` moves: the system's pos/vel/acc/jerk are
        valid only after :meth:`synchronise` writes every particle,
        predicted to one time, into it.
        """
        if t_end <= self.time:
            raise ConfigurationError(
                f"t_end={t_end} is not ahead of t={self.time}"
            )
        if not self._initialised:
            self.initialise()
        blocks = 0
        while self.next_block_time() <= t_end:
            self.step_block()
            blocks += 1
            if blocks > max_blocks:
                raise IntegratorError(
                    f"exceeded {max_blocks} block steps before t_end"
                )

    def synchronise(self, t_end: float | None = None) -> None:
        """Write every particle, predicted to ``t_end``, into the system.

        ``t_end`` defaults to the global block time and may not precede
        it.  Output only: the Taylor prediction (through crackle for
        ``acc``/``jerk``) costs no force evaluation, and the integrator's
        own state and clocks are untouched, so later blocks continue
        exactly as if no synchronisation had happened.
        """
        if not self._initialised:
            raise IntegratorError("synchronise before initialise")
        t = self.time if t_end is None else float(t_end)
        if t < self.time:
            raise ConfigurationError(
                f"cannot synchronise to t={t} before the block time "
                f"{self.time}"
            )
        s = self.system
        s.pos, s.vel = self._predict(t)
        dt_all = (t - self._t)[:, None]
        s.acc = (
            self._acc + dt_all * self._jerk + dt_all**2 / 2.0 * self._snap
            + dt_all**3 / 6.0 * self._crackle
        )
        s.jerk = self._jerk + dt_all * self._snap + dt_all**2 / 2.0 * self._crackle
        s.time = t
        s.check_finite()
