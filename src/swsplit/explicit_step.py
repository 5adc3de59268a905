"""Explicit source sub-step: Coriolis, Chezy drag and wind stress.

The source vector has zero elevation component, so this step changes only
the velocities, which it carries as the complex velocity w = u1 + i u2;
the sub-cycle's increment d_u1* + i d_u2* stays one complex array through
the wave step.
The time advance is a two-stage Taylor scheme: evaluate the sources, take
a half step, re-evaluate at the half-step velocities with the drag rate
and wind frozen, and project onto the P1 test space with an element-mean
correction; the lumped mass inverts the left side.
"""
from __future__ import annotations

import math

import numpy as np

from .fem import FemMatrices
from .mesh import Mesh
from .stability import PhysicalParams, drag_coefficient


def frozen_coefficients(eta, mesh: Mesh, params: PhysicalParams):
    """(g / (k1^2 h), xi / h) on the clamped total height h.

    Times |u| the first is the drag rate, times |v| v the second is the
    wind source.  Both stay fixed while eta does: over a whole sub-cycle.
    """
    h_tot = np.maximum(mesh.depth + eta, params.h_min)
    return drag_coefficient(1.0, h_tot, params), params.xi / h_tot


def sub_cycle_work(frozen, params: PhysicalParams):
    """Constants and work arrays of one sub-cycle's sub-steps.

    Made once per outer step from its :func:`frozen_coefficients` pair,
    and passed to every :func:`taylor_galerkin_increment` of the
    sub-cycle: the drag per unit speed; the wind factor cast to complex
    once, instead of a cast on every product with the complex wind; four
    complex arrays lam, r, a, b of n_nodes, lam's imaginary part preset
    to k0; and the float views of lam (its real part, the drag rate) and
    of b (the pairs that the interleaved C reads).
    """
    drag_per_speed, wind_factor = frozen
    lam, r, a, b = np.empty((4, drag_per_speed.size), dtype=complex)
    lam.imag = params.k0
    return (drag_per_speed, wind_factor.astype(complex), lam, r, a, b,
            lam.real, b.view(float))


def taylor_galerkin_increment(w, wind, matrices: FemMatrices, tau, *, work) -> np.ndarray:
    """Velocity increment u1 + i u2 of one explicit sub-step of length ``tau``.

    ``w`` is the complex velocity u1 + i u2 at the sub-step start and
    ``work`` is the sub-cycle's :func:`sub_cycle_work`; the increment is
    written into its array a, which the next call overwrites.  The nodal
    sources are r = W - lam w, with lam = D + i k0, the drag rate
    D = frozen[0] |w| and the wind W = frozen[1] |v| (v1 + i v2), where
    ``frozen`` is the pair that made ``work``; drag and wind frozen, the
    half-step sources are (1 - tau lam/2) r.  Projected with the
    element-mean correction (per element M_e = (A/12)(I + 11^T), the mean
    term is (A/9)11^T, and the A/12 parts sum to M_L/4 at every node),
    the increment tau [1/4 (r_half + r) + C (3 r_half - r)] with the
    assembled C = M_L^-1 P/4 is
    (tau/2 - tau^2 lam/8) r + C [(2 tau - 3 tau^2 lam/2) r].  The
    assembled ``C`` is interleaved, C kron I_2, so one single-vector
    product on the float view of the complex argument applies C to its
    real and imaginary parts.  For a spatially uniform field this is
    exactly the 2x2 map of :func:`swsplit.stability.source_update_matrix`.
    """
    drag_per_speed, wind_factor, lam, r, a, b, drag, b_pairs = work
    np.abs(w, out=drag)
    drag *= drag_per_speed
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
    a += (matrices.C @ b_pairs).view(complex)
    return a
