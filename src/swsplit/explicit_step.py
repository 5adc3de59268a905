"""Explicit source sub-step: Coriolis, Chezy drag and wind stress.

The source vector has zero elevation component, so this step changes only
the velocities, which it carries as the complex velocity w = u1 + i u2.
The time advance is a two-stage Taylor scheme: evaluate the sources, take
a half step, re-evaluate at the half-step velocities with the drag rate
and wind frozen, and project onto the P1 test space with an element-mean
correction; the lumped mass inverts the left side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import FemMatrices
from .mesh import Mesh
from .stability import PhysicalParams, drag_coefficient


@dataclass
class SourceIncrement:
    """Velocity increments of one sub-cycle; elevation is untouched."""

    d_u1: np.ndarray
    d_u2: np.ndarray


def frozen_coefficients(eta, mesh: Mesh, params: PhysicalParams):
    """(g / (k1^2 h), xi / h) on the clamped total height h.

    Times |u| the first is the drag rate, times |v| v the second is the
    wind source.  Both stay fixed while eta does: over a whole sub-cycle.
    """
    h_tot = np.maximum(mesh.depth + eta, params.h_min)
    return drag_coefficient(1.0, h_tot, params), params.xi / h_tot


def taylor_galerkin_increment(w, wind, matrices: FemMatrices, params: PhysicalParams,
                              tau, *, frozen, work) -> np.ndarray:
    """Velocity increment u1 + i u2 of one explicit sub-step of length ``tau``.

    ``w`` is the complex velocity u1 + i u2 at the sub-step start and
    ``frozen`` is :func:`frozen_coefficients` of the elevation.  The
    caller computes ``frozen`` and allocates ``work``, four complex
    arrays of n_nodes, once per sub-cycle; the increment is written into
    ``work[2]``, which the next call overwrites.  The nodal sources are
    r = W - lam w, with lam = D + i k0, the drag rate D = frozen[0] |w|
    and the wind W = frozen[1] |v| (v1 + i v2); drag and wind frozen, the
    half-step sources are (1 - tau lam/2) r.  Projected with the
    element-mean correction (per element M_e = (A/12)(I + 11^T), the mean
    term is (A/9)11^T, and the A/12 parts sum to M_L/4 at every node),
    the increment tau [1/4 (r_half + r) + C (3 r_half - r)] with the
    assembled C = M_L^-1 P/4 is
    (tau/2 - tau^2 lam/8) r + C [(2 tau - 3 tau^2 lam/2) r].  ``C`` is
    applied once, to the real and imaginary parts as the two columns of
    one product.  For a spatially uniform field this is exactly the 2x2
    map of :func:`swsplit.stability.source_update_matrix`.
    """
    drag_per_speed, wind_factor = frozen
    lam, r, a, b = work
    drag = lam.real
    np.abs(w, out=drag)
    drag *= drag_per_speed
    lam.imag = params.k0
    np.multiply(lam, w, out=r)
    v1, v2 = wind
    wind_speed = math.hypot(v1, v2)
    if wind_speed:
        np.multiply(wind_factor, complex(wind_speed * v1, wind_speed * v2), out=a)
        np.subtract(a, r, out=r)
    else:
        np.negative(r, out=r)
    np.multiply(lam, -0.125 * tau * tau, out=a)
    a += 0.5 * tau
    a *= r
    np.multiply(lam, -1.5 * tau * tau, out=b)
    b += 2.0 * tau
    b *= r
    a += (matrices.C @ b.view(float).reshape(-1, 2)).view(complex)[:, 0]
    return a
