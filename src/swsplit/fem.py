"""Global sparse P1 matrices: mass, lumped mass, the sub-step projection,
depth-weighted stiffness and the two gradient matrices.

Element contributions (area A, basis gradients grad phi_i constant):

    mass      (A/12) * [[2,1,1],[1,2,1],[1,1,2]]
    P/4       A/36 in every entry (P: element-mean operator, A/9 per entry);
              C = (M_L^-1 P/4) kron I_2, each row divided by its lumped
              mass once and interleaved for the float view of u1 + i u2
    stiffness  A * Hbar * (grad phi_i . grad phi_j),  Hbar = mean nodal depth
    gradient  (A/3) * d(phi_j)/dx_k, identical for every test index i

Scatter order is the element index order, so assembly is bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


class AssemblyError(RuntimeError):
    """Inconsistent matrix produced from a supposedly valid mesh."""


@dataclass(frozen=True)
class FemMatrices:
    """Assembled global operators on one mesh (CSR, immutable), built once per run."""

    M: sp.csr_matrix        # consistent mass, symmetric positive definite
    M_L: np.ndarray         # lumped mass diagonal (row sums of M)
    C: sp.csr_matrix        # (M_L^-1 P/4) kron I_2, the sub-step's element-mean
                            # coupling on the interleaved floats of u1 + i u2
    S: sp.csr_matrix        # depth-weighted stiffness, symmetric PSD
    Q1: sp.csr_matrix       # integral of phi_i d(phi_j)/dx1
    Q2: sp.csr_matrix       # integral of phi_i d(phi_j)/dx2


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _scatter(mesh: Mesh, el) -> sp.csr_matrix:
    """Sum (n_tris, 3, 3) element blocks into a global CSR matrix."""
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.n_nodes
    mat = sp.coo_matrix((np.ascontiguousarray(el).ravel(), (rows, cols)),
                        shape=(n, n)).tocsr()
    mat.sort_indices()
    return mat


def assemble(mesh: Mesh) -> FemMatrices:
    """Assemble M, M_L, C, S, Q1, Q2 over all elements of ``mesh``."""
    tris = mesh.triangles
    areas = mesh.areas
    area_el = areas[:, None, None]
    grads = mesh.grads

    hbar = mesh.depth[tris].mean(axis=1)
    stiff_el = (areas * hbar)[:, None, None] * np.einsum("eik,ejk->eij", grads, grads)
    # (A/3) * d(phi_j)/dx_k, identical for each of the three test indices i
    shape = (len(tris), 3, 3)
    q1_el = np.broadcast_to(((areas / 3.0)[:, None] * grads[:, :, 0])[:, None, :], shape)
    q2_el = np.broadcast_to(((areas / 3.0)[:, None] * grads[:, :, 1])[:, None, :], shape)

    M = _scatter(mesh, area_el * _MASS_PATTERN)
    M_L = lump(M)
    C = _scatter(mesh, np.broadcast_to(area_el / 36.0, shape))
    C.data /= np.repeat(M_L, np.diff(C.indptr))
    return FemMatrices(M=M, M_L=M_L, C=_interleave(C), S=_scatter(mesh, stiff_el),
                       Q1=_scatter(mesh, q1_el), Q2=_scatter(mesh, q2_el))


def _interleave(C: sp.csr_matrix) -> sp.csr_matrix:
    """C kron I_2 (2n x 2n) from C's sorted CSR arrays, in O(nnz).

    Row 2i holds row i of C on the even columns 2j and row 2i+1 holds it
    on the odd columns 2j+1, in C's column order; so one single-vector
    product on the float view (re, im, re, im, ...) of a complex vector
    sums each row as C does on the real and imaginary parts apart.
    """
    ptr, cols = C.indptr, C.indices.astype(np.int64)
    length = np.diff(ptr)
    even = np.repeat(ptr[:-1], length) + np.arange(C.nnz)   # 2 ptr[i] + offset in row i
    odd = even + np.repeat(length, length)
    indices = np.empty(2 * C.nnz, dtype=np.int64)
    indices[even], indices[odd] = 2 * cols, 2 * cols + 1
    data = np.empty(2 * C.nnz)
    data[even] = data[odd] = C.data
    indptr = np.empty(2 * len(ptr) - 1, dtype=np.int64)
    indptr[0::2] = 2 * ptr
    indptr[1::2] = ptr[:-1] + ptr[1:]
    n = 2 * C.shape[0]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def lump(M: sp.csr_matrix) -> np.ndarray:
    """Row-sum lumped mass diagonal; every entry must be positive."""
    diag = np.asarray(M.sum(axis=1)).ravel()
    if np.any(diag <= 0.0):
        raise AssemblyError("non-positive lumped mass entry")
    return diag


def helmholtz_matrix(matrices: FemMatrices, tau_tilde, theta1, theta2, g) -> sp.csr_matrix:
    """Elevation system matrix M + tau_tilde^2 g theta1 theta2 S (SPD)."""
    A = (matrices.M + (tau_tilde ** 2 * g * theta1 * theta2) * matrices.S).tocsr()
    A.sort_indices()
    return A

