"""Explicit source sub-step: Coriolis, Chezy drag and wind stress.

The source vector has zero elevation component, so this step changes only
the velocities, which it carries as the complex velocity w = u1 + i u2;
the sub-cycle's increment d_u1* + i d_u2* stays one complex array through
the wave step.
The time advance is a two-stage Taylor scheme: evaluate the sources, take
a half step, re-evaluate at the half-step velocities with the drag rate
and wind frozen, and project onto the P1 test space with an element-mean
correction and the lumped mass: one product with G = M_L^-1 (M_L + P).
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


def sub_cycle_work(frozen, params: PhysicalParams, tau):
    """Constants and work arrays of one sub-cycle's sub-steps of length ``tau``.

    Made once per outer step from its :func:`frozen_coefficients` pair,
    and passed to every :func:`taylor_galerkin_increment` of the
    sub-cycle: with kappa = tau/2, the drag per unit speed and the wind
    factor (cast to complex once) times kappa; four complex arrays lam,
    r, a, b of n_nodes, lam's imaginary part preset to kappa k0; and the
    float views of lam (its real part, kappa times the drag rate), of a
    (the pairs that the interleaved G reads) and of b (the pairs that
    G's product is added to).
    """
    drag_per_speed, wind_factor = frozen
    kappa = 0.5 * tau
    lam, r, a, b = np.empty((4, drag_per_speed.size), dtype=complex)
    lam.imag = kappa * params.k0
    return (kappa * drag_per_speed, (kappa * wind_factor).astype(complex), lam, r, a, b,
            lam.real, a.view(float), b.view(float))


def taylor_galerkin_increment(w, wind, matrices: FemMatrices, *, work) -> np.ndarray:
    """Velocity increment u1 + i u2 of one explicit sub-step.

    ``w`` is the complex velocity u1 + i u2 at the sub-step start and
    ``work`` is the sub-cycle's :func:`sub_cycle_work` for the pair
    ``frozen`` and the step tau; the increment is written into its array
    b, which the next call overwrites.  With the sources r = W - lam w,
    lam = D + i k0, the drag rate D = frozen[0] |w| and the wind
    W = frozen[1] |v| (v1 + i v2) frozen, the half-step sources are
    (1 - tau lam/2) r, and the projected increment (the A/12 parts of the
    element masses sum to M_L/4 at every node) is
    (tau/2 - tau^2 lam/8) r + C [(2 tau - 3 tau^2 lam/2) r], C = M_L^-1 P/4.
    With kappa = tau/2, Lam = kappa lam, rho = kappa W - Lam w and
    p = Lam rho, that is G (rho - 1.5 p) + p: one product with the
    interleaved G = (I + 4C) kron I_2 on the float view of its argument.
    On a uniform field G 1 = 2, and this is exactly the 2x2 map of
    :func:`swsplit.stability.source_update_matrix`.
    """
    drag_per_speed, wind_factor, lam, r, a, b, drag, a_pairs, b_pairs = work
    np.abs(w, out=drag)
    drag *= drag_per_speed
    np.multiply(lam, w, out=r)
    v1, v2 = wind
    wind_speed = math.hypot(v1, v2)
    np.multiply(wind_factor, complex(wind_speed * v1, wind_speed * v2), out=b)
    np.subtract(b, r, out=r)
    np.multiply(lam, r, out=b)
    np.multiply(b, -1.5, out=a)
    a += r
    b_pairs += matrices.G * a_pairs   # spmatrix product: no scalar-operand check of @
    return b
