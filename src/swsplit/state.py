"""Nodal solution state: elevation, velocities and the simulation clock."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class State:
    eta: np.ndarray   # free-surface elevation, m
    u1: np.ndarray    # velocity, m/s
    u2: np.ndarray
    t: float = 0.0    # s

    def check(self):
        """Raise on shape mismatch or non-finite entries (hard fault)."""
        n = self.eta.shape[0]
        if self.u1.shape != (n,) or self.u2.shape != (n,):
            raise ValueError("state arrays differ in length")
        require_finite(eta=self.eta, u1=self.u1, u2=self.u2)
        return self


def require_finite(**arrays):
    """Raise FloatingPointError naming the first of ``arrays`` with a
    non-finite entry, and its first such node (located only on failure)."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise FloatingPointError(
                f"non-finite {name} at node {np.flatnonzero(~np.isfinite(arr))[0]}")


def initial_state(n_nodes: int, eta0: float = 0.0, t: float = 0.0) -> State:
    """Constant elevation, zero velocity."""
    return State(np.full(n_nodes, float(eta0)), np.zeros(n_nodes),
                 np.zeros(n_nodes), t)
