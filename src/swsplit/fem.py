"""Global sparse P1 matrices: mass, lumped mass, the sub-step projection,
depth-weighted stiffness and the two gradient matrices.

The element geometry is derived here, once per assembly, from the CCW
triangles of :func:`swsplit.mesh.build_mesh`: area A and the basis
gradients grad phi_i, constant on each element.  Element contributions:

    mass      (A/12) * [[2,1,1],[1,2,1],[1,1,2]]
    M_L + P   (A/9) * [[4,1,1],[1,4,1],[1,1,4]] (P: element-mean operator);
              G = M_L^-1 (M_L + P) kron I_2, each row divided by its lumped
              mass once; two stacked copies, on the even and the odd columns,
              row-gathered into the order of the floats of u1 + i u2
    stiffness  A * Hbar * (grad phi_i . grad phi_j),  Hbar = mean nodal depth
    gradient  (A/3) * d(phi_j)/dx_k, identical for every test index i

All of them live on one node-adjacency pattern: the 9 n_tris element
entries' keys row * n + col are sorted once per assembly, which gives a
canonical (sorted, duplicate-free) CSR pattern and the slot of every
element entry in it.  Each operator is one bincount of its element values
over those slots, summed in element index order, so assembly is
bit-reproducible; the operators share the read-only index arrays, and the
elevation system M + c S is the sum of two data arrays on the same pattern.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


@dataclass(frozen=True)
class FemMatrices:
    """Assembled global operators on one mesh (CSR, immutable), built once per run."""

    M: sp.csr_matrix        # consistent mass, symmetric positive definite
    M_L: np.ndarray         # lumped mass diagonal (row sums of M), > 0 on a built mesh
    G: sp.csr_matrix        # M_L^-1 (M_L + P) kron I_2 = I + M_L^-1 P, the sub-step's
                            # projection on the floats (re, im, ...) of u1 + i u2: row i
                            # on the even columns in row 2i, on the odd ones in row 2i+1
    S: sp.csr_matrix        # depth-weighted stiffness, symmetric PSD
    Q1: sp.csr_matrix       # integral of phi_i d(phi_j)/dx1
    Q2: sp.csr_matrix       # integral of phi_i d(phi_j)/dx2


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0
_G_PATTERN = (np.ones((3, 3)) + 3.0 * np.eye(3)) / 9.0


def _triangle_geometry(coords):
    """Areas (n_tris,) and P1 basis gradients (n_tris, 3, 2) of the
    triangles with vertices ``coords`` (n_tris, 3, 2); ``grads[t, i]`` is
    the gradient of vertex i's basis function on triangle t.  The areas
    are signed, positive for CCW triangles; the gradients hold either way."""
    x, y = coords[..., 0], coords[..., 1]
    e1x, e1y = x[..., 1] - x[..., 0], y[..., 1] - y[..., 0]
    e2x, e2y = x[..., 2] - x[..., 0], y[..., 2] - y[..., 0]
    twice_area = e1x * e2y - e1y * e2x      # build_mesh leaves it >= 2 DEGENERATE_AREA
    grads = np.empty(coords.shape)
    grads[..., 1, 0] = (y[..., 2] - y[..., 0]) / twice_area
    grads[..., 1, 1] = (x[..., 0] - x[..., 2]) / twice_area
    grads[..., 2, 0] = (y[..., 0] - y[..., 1]) / twice_area
    grads[..., 2, 1] = (x[..., 1] - x[..., 0]) / twice_area
    # First gradient closes the partition of unity exactly in floating point.
    grads[..., 0, :] = -(grads[..., 1, :] + grads[..., 2, :])
    return 0.5 * twice_area, grads


def _pattern(mesh: Mesh):
    """The P1 node-adjacency pattern: sorted CSR ``indptr`` and ``indices``
    and, per element entry (e, i, j) in C order, its slot in them."""
    tris = mesh.triangles
    n = mesh.n_nodes
    keys = (tris[:, :, None] * n + tris[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")   # runs of presorted keys: faster than quicksort
    keys = keys[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    slot = np.empty(len(keys), dtype=np.int32)
    slot[order] = np.cumsum(first, dtype=np.int32) - 1
    rows, cols = np.divmod(keys[first], n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols.astype(np.int32)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices, slot


def assemble(mesh: Mesh) -> FemMatrices:
    """Assemble M, M_L, G, S, Q1, Q2 over all elements of ``mesh``."""
    indptr, indices, slot = _pattern(mesh)
    n = mesh.n_nodes

    def csr(el):
        """The (n_tris, 3, 3) element blocks ``el`` summed on the pattern."""
        data = np.bincount(slot, weights=np.ravel(el), minlength=len(indices))
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    areas, grads = _triangle_geometry(mesh.coords[mesh.triangles])
    area_el = areas[:, None, None]
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    hbar = mesh.depth[mesh.triangles].mean(axis=1)
    M = csr(area_el * _MASS_PATTERN)
    M_L = np.asarray(M.sum(axis=1)).ravel()
    G = csr(area_el * _G_PATTERN)
    G.data /= np.repeat(M_L, np.diff(indptr))
    S = csr((areas * hbar)[:, None, None] * (gx[:, :, None] * gx[:, None, :]
                                             + gy[:, :, None] * gy[:, None, :]))
    # (A/3) * d(phi_j)/dx_k, identical for each of the three test indices i
    Q1 = csr(np.repeat((areas / 3.0)[:, None] * gx, 3, axis=0))
    Q2 = csr(np.repeat((areas / 3.0)[:, None] * gy, 3, axis=0))
    del areas, area_el, grads, gx, gy, hbar   # freed before the peak, G kron I_2's layout
    # G kron I_2 last: while S's and Q's element temporaries live, G is half the size.
    # Rows 0..n-1 hold G on the even columns (u1), rows n..2n-1 on the odd
    # ones (u2); the row gather 0, n, 1, n+1, ... interleaves them.
    two = sp.csr_matrix((np.tile(G.data, 2), np.concatenate((2 * indices, 2 * indices + 1)),
                         np.concatenate((indptr, indptr[1:] + G.nnz))), shape=(2 * n, 2 * n))
    G = two[np.arange(2 * n).reshape(2, n).T.ravel()]
    return FemMatrices(M=M, M_L=M_L, G=G, S=S, Q1=Q1, Q2=Q2)


def helmholtz_matrix(matrices: FemMatrices, tau_tilde, theta1, theta2, g) -> sp.csr_matrix:
    """Elevation system matrix M + tau_tilde^2 g theta1 theta2 S (SPD), on
    the pattern that M and S share."""
    M, S = matrices.M, matrices.S
    data = M.data + (tau_tilde ** 2 * g * theta1 * theta2) * S.data
    return sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
