"""Explicit source sub-step: Coriolis, Chezy drag and wind stress.

The source vector has zero elevation component, so this step changes only
the velocities.  The time advance is a two-stage Taylor scheme: evaluate
the sources, take a half step, re-evaluate at the half-step velocities
with the drag rate and wind frozen, and project onto the P1 test space
with an element-mean correction; the lumped mass inverts the left side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import FemMatrices
from .mesh import Mesh
from .stability import PhysicalParams, drag_coefficient
from .state import State


@dataclass
class SourceIncrement:
    """Velocity increments of one sub-step; elevation is untouched."""

    d_u1: np.ndarray
    d_u2: np.ndarray


def speed(u1, u2):
    """Nodal current speed |u| = sqrt(u1^2 + u2^2)."""
    return np.sqrt(u1 * u1 + u2 * u2)


def frozen_coefficients(eta, mesh: Mesh, params: PhysicalParams):
    """(g / (k1^2 h), xi / h) on the clamped total height h.

    Times |u| the first is the drag rate, times |v| v the second is the
    wind source.  Both stay fixed while eta does: over a whole sub-cycle.
    """
    h_tot = np.maximum(mesh.depth + eta, params.h_min)
    return drag_coefficient(1.0, h_tot, params), params.xi / h_tot


def taylor_galerkin_increment(state: State, wind, matrices: FemMatrices,
                              params: PhysicalParams, tau, *, frozen) -> SourceIncrement:
    """One explicit sub-step of length ``tau``.

    Returns the velocity increment tau * R(half step) projected in the
    Galerkin sense: the right side integrates R(half) plus the deviation
    of R(start) from its element means, the left side is the lumped mass
    ``matrices.M_L``.  ``frozen`` is :func:`frozen_coefficients` of
    ``state.eta``, computed once per sub-cycle by the caller.
    For a spatially uniform field this reduces exactly to the 2x2 map of
    :func:`swsplit.stability.source_update_matrix`.
    """
    k0 = params.k0
    drag_per_speed, wind_factor = frozen
    drag = drag_per_speed * speed(state.u1, state.u2)
    r1_n = k0 * state.u2 - drag * state.u1
    r2_n = -k0 * state.u1 - drag * state.u2
    v1, v2 = wind
    wind_speed = math.hypot(v1, v2)
    if wind_speed:
        r1_n += wind_factor * (wind_speed * v1)
        r2_n += wind_factor * (wind_speed * v2)
    # drag and wind frozen, the sources are affine in u: the half-step
    # sources add tau/2 times their linear part applied to r_n, and the
    # wind cancels
    half = 0.5 * tau
    r1_h = r1_n + half * (k0 * r2_n - drag * r1_n)
    r2_h = r2_n - half * (k0 * r1_n + drag * r2_n)

    return SourceIncrement(d_u1=tau * _lumped_projection(matrices, r1_h, r1_n),
                           d_u2=tau * _lumped_projection(matrices, r2_h, r2_n))


def _lumped_projection(matrices: FemMatrices, r_half, r_start):
    """M_L^-1 [ M (r_half + r_start) - element-mean integral of r_start ].

    Per element M_e = (A/12)(I + 11^T) and the mean term is (A/9)11^T;
    the A/12 identity parts sum to M_L/4 at every node, which leaves
    1/4 (r_half + r_start) + C (3 r_half - r_start) with the assembled
    C = M_L^-1 P/4 (A/36 in every entry of an element block).
    """
    return 0.25 * (r_half + r_start) + matrices.C @ (3.0 * r_half - r_start)
