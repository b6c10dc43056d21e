"""Kick-drift-kick leapfrog: the comparison integrator.

Second-order, symplectic, and jerk-free — the natural baseline against the
paper's 4th-order Hermite scheme.  The integrator-comparison benchmark
measures what the Hermite machinery (and hence the jerk half of the
offloaded kernel) buys: at equal force-evaluation counts the Hermite
integrator's energy error is orders of magnitude smaller on smooth
problems, which is why production direct codes pay for the jerk.

The leapfrog only needs accelerations; backends still return jerk, which
is simply ignored, so the same force backends (reference, CPU model,
Wormhole offload) drive both integrators.  The registered ``leapfrog``
scheme (:class:`~repro.core.integrators.LeapfrogDriver`) runs this step
on the shared driver skeleton.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["leapfrog_step"]


def leapfrog_step(pos, vel, acc, dt, evaluate_acc):
    """One KDK step; returns (pos1, vel1, acc1)."""
    if dt <= 0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    vel_half = vel + 0.5 * dt * acc
    pos1 = pos + dt * vel_half
    acc1 = evaluate_acc(pos1, vel_half)
    vel1 = vel_half + 0.5 * dt * acc1
    return pos1, vel1, acc1
