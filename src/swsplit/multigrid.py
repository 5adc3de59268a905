"""Smoothed-aggregation algebraic multigrid for symmetric positive
definite P1 systems (Vanek, Mandel & Brezina, Computing 56, 1996).

:func:`build_hierarchy` coarsens a matrix once; :meth:`Hierarchy.vcycle`
applies one symmetric V-cycle, a symmetric positive definite
approximation of A^-1 that preconditions conjugate gradients.  Every
pass runs in node order, so the hierarchy of a matrix is bitwise
reproducible.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

STRENGTH = 0.08      # |a_ij| >= STRENGTH sqrt(a_ii a_jj) couples i and j strongly
COARSE_SIZE = 300    # levels this small are solved with a dense inverse
PROLONG_WEIGHT = 4.0 / 3.0   # prolongator smoothing: omega = PROLONG_WEIGHT / rho
SMOOTH_WEIGHT = 2.0 / 3.0    # damped-Jacobi weight of the V-cycle sweeps


def strong_neighbours(A: sp.csr_matrix):
    """CSR-style (pointer, neighbour) arrays of the symmetric strength graph,
    as memoryviews: indexing them yields Python ints without the memory of
    a list of ints."""
    n = A.shape[0]
    diag = A.diagonal()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cols = A.indices
    strong = (rows != cols) & (np.abs(A.data) >= STRENGTH * np.sqrt(diag[rows] * diag[cols]))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[strong], minlength=n), out=ptr[1:])
    return memoryview(ptr), memoryview(cols[strong])


def aggregate(ptr, nbr):
    """Greedy aggregation in node order; returns (aggregate of each node, count).

    Pass 1: a node whose strong neighbours are all unassigned seeds an
    aggregate with them (a node without strong neighbours is a singleton).
    Pass 2: every node left over was blocked by a neighbour assigned in
    pass 1 and joins the first such neighbour's aggregate.
    """
    n = len(ptr) - 1
    agg = [-1] * n
    count = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        ns = nbr[ptr[i]:ptr[i + 1]]
        if all(agg[j] < 0 for j in ns):
            agg[i] = count
            for j in ns:
                agg[j] = count
            count += 1
    seeded = agg[:]
    for i in range(n):
        if agg[i] < 0:
            agg[i] = next(seeded[j] for j in nbr[ptr[i]:ptr[i + 1]] if seeded[j] >= 0)
    return np.array(agg, dtype=np.int64), count


def prolongator(A: sp.csr_matrix, agg, count) -> sp.csr_matrix:
    """Constant-mode tentative prolongator smoothed by one damped-Jacobi step."""
    n = A.shape[0]
    size = np.bincount(agg, minlength=count)
    T = sp.csr_matrix((1.0 / np.sqrt(size[agg]), agg, np.arange(n + 1)), shape=(n, count))
    diag = A.diagonal()
    rho = float(np.max(abs(A).sum(axis=1).A1 / diag))   # Gershgorin bound of D^-1 A
    return (T - sp.diags(PROLONG_WEIGHT / rho / diag) @ (A @ T)).tocsr()


class Hierarchy:
    """Levels (A, P, R, Jacobi scaling) plus the coarsest solve.

    R is the restriction P^T stored as CSR with sorted indices, so each
    V-cycle restricts with a CSR product instead of transposing P, and
    sums every row in the order the transpose would.  P is ``R.T``, a
    CSC view of R's arrays: :func:`build_hierarchy` frees each P once
    R A P is formed, and prolonging sums rows in sorted column order.
    """

    def __init__(self, levels, coarse):
        self.levels = levels
        self.coarse = coarse

    @property
    def sizes(self):
        return [A.shape[0] for A, *_ in self.levels] + [self.coarse.shape[0]]

    def vcycle(self, b):
        """One V-cycle from a zero guess: one pre- and one post-smoothing sweep."""
        return self._cycle(0, b)

    def _cycle(self, k, b):
        if k == len(self.levels):
            return self.coarse @ b
        A, P, R, w = self.levels[k]
        x = w * b
        x += P @ self._cycle(k + 1, R @ (b - A @ x))
        x += w * (b - A @ x)
        return x


def build_hierarchy(A) -> Hierarchy:
    """Coarsen an SPD matrix by Galerkin products R A P (R = P^T) down to
    COARSE_SIZE unknowns, then invert the coarsest level densely.

    Should aggregation shrink a larger level by less than half (few
    strong couplings left, as when a small tau_tilde leaves A close to
    the mass matrix), coarsening stops there: that level is weakly
    coupled, and its inverse diagonal stands in for the dense inverse.
    Every level is thus at most half the size of the one above it.
    """
    A = sp.csr_matrix(A)
    levels = []
    while A.shape[0] > COARSE_SIZE:
        agg, count = aggregate(*strong_neighbours(A))
        if 2 * count > A.shape[0]:
            return Hierarchy(levels, sp.diags(1.0 / A.diagonal(), format="csr"))
        P = prolongator(A, agg, count)
        R = P.T.tocsr()
        levels.append((A, R.T, R, SMOOTH_WEIGHT / A.diagonal()))
        A = R @ (A @ P)
        del P
        A.sort_indices()
    inv = np.linalg.inv(A.toarray())
    return Hierarchy(levels, 0.5 * (inv + inv.T))
