"""Explicit source sub-step: Coriolis, Chezy drag and wind stress.

The source vector has zero elevation component, so this step changes only
the velocities.  The time advance is a two-stage Taylor scheme: evaluate
the sources, take a half step, re-evaluate at the half-step velocities
with the drag rate and wind frozen, and project onto the P1 test space
with an element-mean correction; the lumped mass inverts the left side.
"""
from __future__ import annotations

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


def total_height(eta, mesh: Mesh, params: PhysicalParams):
    """Instantaneous water column H + eta, clamped away from zero."""
    return np.maximum(mesh.depth + eta, params.h_min)


def _sources(u1, u2, drag, k0, w1, w2):
    """Source pair with a prescribed (frozen) drag rate and wind stress."""
    r1 = k0 * u2 - drag * u1 + w1
    r2 = -k0 * u1 - drag * u2 + w2
    return r1, r2


def _frozen_coefficients(state: State, mesh: Mesh, params: PhysicalParams, wind):
    h_tot = total_height(state.eta, mesh, params)
    drag = drag_coefficient(np.hypot(state.u1, state.u2), h_tot, params)
    v1, v2 = wind
    wind_speed = np.hypot(v1, v2)
    w1 = params.xi * wind_speed * v1 / h_tot
    w2 = params.xi * wind_speed * v2 / h_tot
    return drag, w1, w2


def source_terms(state: State, mesh: Mesh, params: PhysicalParams, wind=(0.0, 0.0)):
    """Nodal source pair (r1, r2) evaluated at ``state``.

    r1 = k0 u2 - g u1 |u| / (k1^2 h) + xi |v| v1 / h and the u1 <-> u2
    antisymmetric counterpart, with h the clamped total height.
    """
    drag, w1, w2 = _frozen_coefficients(state, mesh, params, wind)
    return _sources(state.u1, state.u2, drag, params.k0, w1, w2)


def taylor_galerkin_increment(state: State, wind, matrices: FemMatrices, mesh: Mesh,
                              params: PhysicalParams, tau) -> SourceIncrement:
    """One explicit sub-step of length ``tau``.

    Returns the velocity increment tau * R(half step) projected in the
    Galerkin sense: the right side integrates R(half) plus the deviation
    of R(start) from its element means, the left side is the lumped mass
    ``matrices.M_L``.
    For a spatially uniform field this reduces exactly to the 2x2 map of
    :func:`swsplit.stability.source_update_matrix`.
    """
    drag, w1, w2 = _frozen_coefficients(state, mesh, params, wind)
    k0 = params.k0
    r1_n, r2_n = _sources(state.u1, state.u2, drag, k0, w1, w2)
    u1_half = state.u1 + 0.5 * tau * r1_n
    u2_half = state.u2 + 0.5 * tau * r2_n
    r1_h, r2_h = _sources(u1_half, u2_half, drag, k0, w1, w2)

    return SourceIncrement(d_u1=tau * _lumped_projection(matrices, r1_h, r1_n),
                           d_u2=tau * _lumped_projection(matrices, r2_h, r2_n))


def _lumped_projection(matrices: FemMatrices, r_half, r_start):
    """M_L^-1 [ M (r_half + r_start) - element-mean integral of r_start ].

    Evaluated as M_L^-1 (M r_half + K r_start) with the assembled
    K = M - P, P the element-mean operator.
    """
    return (matrices.M @ r_half + matrices.K @ r_start) / matrices.M_L
