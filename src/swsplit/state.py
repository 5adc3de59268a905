"""Nodal solution state: elevation, complex velocity and the simulation clock."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class State:
    eta: np.ndarray   # free-surface elevation, m
    u: np.ndarray     # velocity u1 + i u2, m/s
    t: float = 0.0    # s

    def __post_init__(self):
        if not np.iscomplexobj(self.u):
            raise ValueError("state velocity must be complex u1 + i u2")
        if self.eta.ndim != 1 or self.u.shape != self.eta.shape:
            raise ValueError("state arrays differ in length")

    def check(self):
        """Raise on non-finite entries (hard fault)."""
        require_finite(eta=self.eta, u1=self.u.real, u2=self.u.imag)
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
    return State(np.full(n_nodes, float(eta0)), np.zeros(n_nodes, dtype=complex), t)
