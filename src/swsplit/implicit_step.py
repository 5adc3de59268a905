"""Implicit wave sub-step: elevation solve and velocity back-substitution.

The elevation increment solves the symmetric positive definite system

    (M + tau_tilde^2 g theta1 theta2 S) d_eta =
        -tau_tilde [ Q1 (H (u1 + theta1 d_u1*)) + Q2 (H (u2 + theta1 d_u2*))
                     + tau_tilde theta1 g S eta ]

with prescribed values at open-boundary nodes eliminated symmetrically,
solved to ||r|| / ||b|| <= CG_TOL by CG preconditioned with
smoothed-aggregation multigrid; then the velocity increments follow
from the lumped mass, M_L d_ui = -tau_tilde g Qi (eta + theta2 d_eta).

CG_TOL = 1e-6 is the accuracy the step can use: the outer step's own
error in eta is some 1e-3 m, while the stop moves eta by about 1e-8 m
against a solve to 1e-10.  In a closed basin each solve changes the
mass by minus the sum of its final residual, so the stop also bounds
the mass drift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import FemMatrices
from .mesh import Mesh
from .multigrid import build_hierarchy
from .state import State

CG_TOL = 1e-6   # relative residual at which every CG solve stops


class SolverError(RuntimeError):
    """Linear solver breakdown or non-convergence."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class LinearSolveStats:
    iterations: int
    residual: float   # final relative residual


def conjugate_gradient(A, b, tol=CG_TOL, maxiter=None, precondition=None):
    """CG for SPD systems, zero initial guess, deterministic.

    Stops when ||r|| / ||b|| <= tol; raises :class:`SolverError` before
    the first iteration on a right side whose norm is not finite, and on
    non-convergence or a curvature that is not positive (matrix not SPD,
    or nan).  ``precondition`` is None (plain CG) or a callable r -> z
    applying a symmetric positive definite approximation of A^-1, such
    as :meth:`multigrid.Hierarchy.vcycle`.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if maxiter is None:
        maxiter = 10 * n
    norm_b = float(np.linalg.norm(b))
    if not np.isfinite(norm_b):
        bad = np.flatnonzero(~np.isfinite(b))
        what = f"not finite at row {bad[0]}" if bad.size else "too large: its norm overflows"
        raise SolverError(f"CG right side is {what}", LinearSolveStats(0, np.nan))
    if norm_b == 0.0:
        return np.zeros(n), LinearSolveStats(0, 0.0)

    x = np.zeros(n)
    r = b.copy()
    z = r if precondition is None else precondition(r)
    p = z.copy()
    rz = float(r @ z)
    rel = 1.0
    for k in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if not pAp > 0.0:
            raise SolverError("CG breakdown: matrix not positive definite",
                              LinearSolveStats(k, rel))
        gamma = rz / pAp
        x += gamma * p
        r -= gamma * Ap
        rel = float(np.linalg.norm(r)) / norm_b
        if rel <= tol:
            return x, LinearSolveStats(k, rel)
        z = r if precondition is None else precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"CG did not converge in {maxiter} iterations "
                      f"(relative residual {rel:.3e})",
                      LinearSolveStats(maxiter, rel))


def elevation_rhs(state: State, d_star, matrices: FemMatrices, mesh: Mesh, cfg, g):
    """Right side of the elevation system (stationary depth H nodal).

    ``d_star`` is the sub-cycle's complex source increment
    d_u1* + i d_u2*.  ``cfg`` is the
    :class:`swsplit.simulator.RunConfig`; its tau_tilde and theta1 enter.
    """
    h = mesh.depth
    w1 = h * (state.u.real + cfg.theta1 * d_star.real)
    w2 = h * (state.u.imag + cfg.theta1 * d_star.imag)
    flux = matrices.Q1 * w1 + matrices.Q2 * w2
    return -cfg.tau_tilde * (flux + cfg.tau_tilde * cfg.theta1 * g * (matrices.S * state.eta))


class ElevationSolver:
    """Elevation system with prescribed values at open nodes, set up once.

    Holds the free-node block A_ff of the system matrix A (sparse or
    dense, converted to ``csr_matrix`` once so that ``*`` is its matrix
    product), the free-by-open block A_fo that shifts the right side by
    the prescribed values, and a smoothed-aggregation multigrid hierarchy
    of A_ff that preconditions every solve's CG.  A, tau_tilde, theta and
    the open nodes are fixed over a run, so one solver serves every outer
    step.
    A closed basin's A_ff is the converted A itself and its A_fo is n x 0;
    otherwise the free rows are sliced once and dropped before the
    hierarchy is built.  If every node is open, A_ff is 0 x 0.
    """

    def __init__(self, A, open_nodes):
        A = sp.csr_matrix(A)
        self.n = A.shape[0]
        self.open_nodes = np.asarray(open_nodes, dtype=int)
        free = np.ones(self.n, dtype=bool)
        free[self.open_nodes] = False
        self.free = np.flatnonzero(free)
        if self.open_nodes.size:
            rows = A[self.free]
            self.A_ff, self.A_fo = rows[:, self.free], rows[:, self.open_nodes]
            del rows
        else:
            self.A_ff, self.A_fo = A, sp.csr_matrix((self.n, 0))
        self.hierarchy = build_hierarchy(self.A_ff)


def solve_elevation(solver: ElevationSolver, rhs, open_values, tol=CG_TOL):
    """Solve A d_eta = rhs with d_eta prescribed at the open nodes.

    The Dirichlet rows/columns are eliminated symmetrically (reduced SPD
    system on the free nodes, right side shifted by the prescribed
    column block of ``solver``); ``open_values`` holds d_eta at
    ``solver.open_nodes``.  Returns (d_eta, stats).
    """
    open_values = np.asarray(open_values, dtype=float)
    d_eta = np.zeros(solver.n)
    d_eta[solver.open_nodes] = open_values
    x_f, stats = conjugate_gradient(solver.A_ff, rhs[solver.free] - solver.A_fo * open_values,
                                    tol=tol, precondition=solver.hierarchy.vcycle)
    d_eta[solver.free] = x_f
    return d_eta, stats


def velocity_correction(state: State, d_eta, matrices: FemMatrices, cfg, g):
    """Complex velocity increment d_u1 + i d_u2 from the updated surface gradient.

    Solves M_L d_ui = -tau_tilde g Qi (eta + theta2 d_eta) with the lumped
    mass, one real product per part; tau_tilde and theta2 come from the
    :class:`swsplit.simulator.RunConfig` ``cfg``.  The land condition is
    not imposed here: :func:`apply_boundaries` imposes it on the
    end-of-step velocity that this increment enters.
    """
    target = state.eta + cfg.theta2 * d_eta
    d_u = np.empty(target.size, dtype=complex)
    d_u.real, d_u.imag = ((-cfg.tau_tilde * g * (Q * target)) / matrices.M_L
                          for Q in (matrices.Q1, matrices.Q2))
    return d_u


def project_land_velocity(u, mesh: Mesh):
    """Zero the component of the complex velocity ``u`` normal to the land
    boundary, in place.

    Corner nodes (distinct adjacent edge normals) are zeroed entirely,
    the only vector with no flow through both edges; wall nodes lose the
    component along their outward normal, part by part (a complex product
    with the normal could flip the sign of a zero part).
    """
    u[mesh.corner_nodes] = 0.0
    u1, u2 = u.real, u.imag
    walls, nx, ny = mesh.wall_nodes, mesh.wall_normals[:, 0], mesh.wall_normals[:, 1]
    un = u1[walls] * nx + u2[walls] * ny
    u1[walls] -= un * nx
    u2[walls] -= un * ny


def apply_boundaries(state: State, mesh: Mesh, eta_open) -> State:
    """Impose boundary data: the tidal elevation ``eta_open`` on open
    nodes, zero normal flow on land nodes.
    """
    state.eta[mesh.open_nodes] = eta_open
    project_land_velocity(state.u, mesh)
    return state
