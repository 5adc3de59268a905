import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (basis_gradients, coo_operators, dense_global_oracle, element_geometry,
                     element_matrices_oracle, eval_basis, jittered_mesh, random_triangle,
                     rect_mesh, rect_mesh_arrays, two_triangle_square, unit_triangle_mesh)
from swsplit.fem import _triangle_geometry, assemble, helmholtz_matrix
from swsplit.mesh import DEGENERATE_AREA, INTERIOR, LAND, build_mesh, load_mesh
from swsplit.simulator import RunConfig

DEMO_MESH = Path(__file__).resolve().parents[1] / "demo" / "channel.mesh"

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def single_triangle_mesh(pts, depth3):
    return build_mesh(pts, [[0, 1, 2]], depth3, [LAND] * 3)


class TestTriangleGeometry:
    def test_unit_right_triangle(self):
        area, grads = _triangle_geometry(UNIT_TRI[None])
        assert area.shape == (1,) and grads.shape == (1, 3, 2)
        assert area[0] == 0.5
        assert np.array_equal(grads[0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_scaling_law(self):
        area, grads = _triangle_geometry(2.0 * UNIT_TRI[None])
        assert area[0] == 2.0
        base_area, base_grads = _triangle_geometry(UNIT_TRI[None])
        assert np.allclose(grads[0], base_grads[0] / 2.0)

    def test_gradients_reproduce_linear_fields(self, rng):
        # finite differences of the P1 interpolant are the oracle
        for _ in range(50):
            pts = random_triangle(rng)
            grads = _triangle_geometry(pts[None])[1][0]
            a, b = rng.uniform(-2, 2, size=2)
            nodal = a * pts[:, 0] + b * pts[:, 1] + rng.uniform(-1, 1)
            centroid = pts.mean(axis=0)
            h = 1e-6
            probes = np.array([centroid + (h, 0), centroid - (h, 0),
                               centroid + (0, h), centroid - (0, h)])
            vals = eval_basis(pts, probes) @ nodal
            fd = np.array([(vals[0] - vals[1]) / (2 * h), (vals[2] - vals[3]) / (2 * h)])
            reconstructed = grads.T @ nodal
            assert np.allclose(reconstructed, (a, b), rtol=0, atol=1e-12)
            assert np.allclose(fd, reconstructed, rtol=0, atol=1e-6)

    def test_matches_vandermonde_oracle(self, rng):
        for _ in range(50):
            pts = random_triangle(rng)
            grads = _triangle_geometry(pts[None])[1][0]
            assert np.allclose(grads, basis_gradients(pts), rtol=0, atol=1e-12)

    def test_partition_of_unity_exact(self, rng):
        for _ in range(100):
            pts = random_triangle(rng)
            grads = _triangle_geometry(pts[None])[1][0]
            total = grads[0] + (grads[1] + grads[2])
            assert total[0] == 0.0 and total[1] == 0.0


class TestElementValues:
    def test_unit_triangle_mass(self):
        m = assemble(unit_triangle_mesh())
        expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
        assert np.allclose(m.M.toarray(), expected, rtol=0, atol=1e-16)

    def test_unit_triangle_stiffness(self):
        m = assemble(unit_triangle_mesh())
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(m.S.toarray(), expected, rtol=0, atol=1e-16)

    def test_unit_triangle_gradients(self):
        m = assemble(unit_triangle_mesh())
        row1 = np.array([-1.0, 1.0, 0.0]) / 6.0
        row2 = np.array([-1.0, 0.0, 1.0]) / 6.0
        assert np.allclose(m.Q1.toarray(), np.tile(row1, (3, 1)), atol=1e-16)
        assert np.allclose(m.Q2.toarray(), np.tile(row2, (3, 1)), atol=1e-16)

    def test_random_triangles_match_quadrature_oracle(self, rng):
        for _ in range(100):
            pts = random_triangle(rng)
            depth3 = rng.uniform(0.1, 3.0, size=3)
            m = assemble(single_triangle_mesh(pts, depth3))
            Me, Se, Q1e, Q2e = element_matrices_oracle(pts, depth3)
            for got, want in ((m.M.toarray(), Me), (m.S.toarray(), Se),
                              (m.Q1.toarray(), Q1e), (m.Q2.toarray(), Q2e)):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale


class TestLumping:
    def test_unit_triangle(self):
        m = assemble(unit_triangle_mesh())
        assert np.allclose(m.M_L, [1 / 6.0] * 3, atol=1e-16)
        assert m.M_L.sum() == pytest.approx(0.5, abs=1e-16)

    def test_two_element_square_total(self):
        m = assemble(two_triangle_square())
        assert m.M_L.sum() == pytest.approx(1.0, rel=1e-14)

    def test_total_equals_mesh_area(self, rng):
        mesh = jittered_mesh(6, 5, rng)
        m = assemble(mesh)
        assert m.M_L.sum() == pytest.approx(element_geometry(mesh)[0].sum(), rel=1e-13)

    @pytest.mark.parametrize("case", ["sliver", "jittered-0", "jittered-1"])
    def test_positive_and_a_third_of_each_adjacent_area(self, case):
        # build_mesh refuses unused nodes and areas below DEGENERATE_AREA,
        # so every lumped mass is a sum of positive terms A/3
        if case == "sliver":
            # the unit square and, below its bottom edge, a 2e-12 m^2 sliver
            mesh = build_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, -4e-12]],
                              [[0, 1, 2], [0, 2, 3], [0, 4, 1]], [1.0] * 5, [LAND] * 5)
            assert DEGENERATE_AREA < element_geometry(mesh)[0].min() < 3.0 * DEGENERATE_AREA
        else:
            mesh = jittered_mesh(7, 6, np.random.default_rng(int(case[-1])))
        M_L = assemble(mesh).M_L
        assert np.all(M_L > 0.0)
        areas = element_geometry(mesh)[0]
        thirds = np.bincount(mesh.triangles.ravel(), weights=np.repeat(areas / 3.0, 3),
                             minlength=mesh.n_nodes)
        assert np.allclose(M_L, thirds, rtol=1e-15, atol=0.0)


class TestGlobalProperties:
    def test_symmetry(self, rng):
        m = assemble(jittered_mesh(6, 6, rng))
        for mat in (m.M, m.S):
            diff = (mat - mat.T).toarray()
            assert np.max(np.abs(diff)) <= 1e-14 * np.max(np.abs(mat.toarray()))

    def test_mass_positive_definite(self, rng):
        m = assemble(jittered_mesh(5, 5, rng))  # 25 nodes
        eig = np.linalg.eigvalsh(m.M.toarray())
        assert eig.min() > 0.0

    def test_stiffness_positive_semidefinite(self, rng):
        m = assemble(jittered_mesh(5, 5, rng))
        eig = np.linalg.eigvalsh(m.S.toarray())
        assert eig.min() >= -1e-12

    def test_gradient_row_sums_vanish(self, rng):
        m = assemble(jittered_mesh(6, 6, rng))
        for Q in (m.Q1, m.Q2):
            rowsum = np.asarray(Q.sum(axis=1)).ravel()
            assert np.max(np.abs(rowsum)) <= 1e-14

    def test_stiffness_annihilates_constants(self, rng):
        mesh = jittered_mesh(6, 6, rng)  # depth varies node to node
        m = assemble(mesh)
        ones = np.ones(mesh.n_nodes)
        assert np.max(np.abs(m.S @ ones)) <= 1e-13

    def test_matches_dense_oracle(self, rng):
        mesh = jittered_mesh(4, 5, rng)
        m = assemble(mesh)
        Mo, So, Q1o, Q2o = dense_global_oracle(mesh)
        for got, want in ((m.M.toarray(), Mo), (m.S.toarray(), So),
                          (m.Q1.toarray(), Q1o), (m.Q2.toarray(), Q2o)):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-30)

    def test_scaling_laws(self, rng):
        mesh = jittered_mesh(5, 4, rng)
        s = 3.7
        scaled = build_mesh(s * mesh.coords, mesh.triangles, mesh.depth, mesh.tags)
        m0 = assemble(mesh)
        m1 = assemble(scaled)
        assert np.allclose(m1.M.toarray(), s ** 2 * m0.M.toarray(), rtol=1e-12)
        assert np.allclose(m1.S.toarray(), m0.S.toarray(), rtol=1e-12, atol=1e-14)
        assert np.allclose(m1.Q1.toarray(), s * m0.Q1.toarray(), rtol=1e-12, atol=1e-15)

    def test_permutation_equivariance(self, rng):
        mesh = rect_mesh(4, 4, 1.0, 1.0)
        perm = rng.permutation(mesh.n_nodes)
        inv = np.argsort(perm)
        permuted = build_mesh(mesh.coords[inv], perm[mesh.triangles],
                              mesh.depth[inv], mesh.tags[inv])
        m0 = assemble(mesh)
        m1 = assemble(permuted)
        P = np.zeros((mesh.n_nodes, mesh.n_nodes))
        P[perm, np.arange(mesh.n_nodes)] = 1.0
        for a, b in ((m0.M, m1.M), (m0.S, m1.S), (m0.Q1, m1.Q1), (m0.Q2, m1.Q2)):
            conj = P @ a.toarray() @ P.T
            assert np.max(np.abs(conj - b.toarray())) <= 1e-14


def scalar_projection(m):
    """G_s = I + M_L^-1 P, the scalar operator that the assembled G interleaves."""
    return m.G[0::2, 0::2]


class TestSubStepCoupling:
    """G = G_s kron I_2, with G_s = M_L^-1 (M_L + P): (A/9)(3I + 11^T) per
    element block, each row over its M_L."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_sums_are_two(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = rng.integers(3, 25, size=2)
        m = assemble(jittered_mesh(nx, ny, rng, scale=rng.uniform(1.0, 1e4)))
        rowsum = np.asarray(m.G.sum(axis=1)).ravel()
        assert np.max(np.abs(rowsum - 2.0)) <= 1e-15

    def test_pattern_of_mass(self, rng):
        m = assemble(jittered_mesh(5, 6, rng))
        G_s = scalar_projection(m)
        assert m.G.nnz == 2 * m.M.nnz and G_s.nnz == m.M.nnz
        assert np.array_equal(G_s.indptr, m.M.indptr)
        assert np.array_equal(G_s.indices, m.M.indices)

    def test_unit_triangle(self):
        m = assemble(unit_triangle_mesh())   # A = 1/2, M_L = 1/6 per node
        assert m.G.shape == (6, 6)
        want = np.eye(3) + np.full((3, 3), 1.0 / 3.0)
        assert np.allclose(scalar_projection(m).toarray(), want, rtol=0, atol=1e-15)


def flipped_mesh(seed):
    """Jittered rectangle handed to build_mesh with about half of its
    triangles clockwise, so they arrive reoriented."""
    rng = np.random.default_rng(seed)
    coords, tris, _, tags = rect_mesh_arrays(9, 7, 1.0, 1.0)
    interior = tags == INTERIOR
    coords[interior] += rng.uniform(-0.02, 0.02, size=(interior.sum(), 2))
    flip = rng.random(len(tris)) < 0.5
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return build_mesh(coords, tris, 1.0 + rng.random(len(coords)), tags)


PATTERN_MESHES = {
    "jittered-0": lambda: jittered_mesh(8, 6, np.random.default_rng(0)),
    "jittered-1": lambda: jittered_mesh(5, 11, np.random.default_rng(1), scale=1e3),
    "clockwise-2": lambda: flipped_mesh(2),
    "clockwise-3": lambda: flipped_mesh(3),
    "demo": lambda: load_mesh(DEMO_MESH),
}


def operators(m):
    """M, the scalar G, S, Q1 and Q2 of one assembly, by name."""
    return {"M": m.M, "G": scalar_projection(m), "S": m.S, "Q1": m.Q1, "Q2": m.Q2}


@pytest.mark.parametrize("name", sorted(PATTERN_MESHES))
class TestSharedPattern:
    """Every operator is summed on one node-adjacency pattern, sorted once."""

    def test_pattern_is_canonical(self, name):
        M = assemble(PATTERN_MESHES[name]()).M
        n = M.shape[0]
        rows = np.repeat(np.arange(n), np.diff(M.indptr))
        assert M.indptr[0] == 0 and M.indptr[-1] == M.nnz == len(M.indices)
        assert np.all(np.diff(rows * n + M.indices) > 0)   # sorted, no duplicates

    def test_operators_share_the_pattern(self, name):
        m = assemble(PATTERN_MESHES[name]())
        A = helmholtz_matrix(m, 300.0, 0.5, 0.5, 9.81)
        for label, mat in {**operators(m), "helmholtz": A}.items():
            assert np.array_equal(mat.indptr, m.M.indptr), label
            assert np.array_equal(mat.indices, m.M.indices), label

    def test_matches_per_operator_coo_assembly(self, name):
        mesh = PATTERN_MESHES[name]()
        got = operators(assemble(mesh))
        for label, want in zip(got, coo_operators(mesh)):
            assert np.array_equal(got[label].indptr, want.indptr), label
            assert np.array_equal(got[label].indices, want.indices), label
            err = np.max(np.abs(got[label].data - want.data))
            assert err <= 1e-15 * np.max(np.abs(want.data)), label

    def test_assembly_is_reproducible(self, name):
        mesh = PATTERN_MESHES[name]()
        first, second = assemble(mesh), assemble(mesh)
        assert np.array_equal(first.M_L, second.M_L)
        for a, b in ((first.M, second.M), (first.G, second.G), (first.S, second.S),
                     (first.Q1, second.Q1), (first.Q2, second.Q2)):
            for part in ("indptr", "indices", "data"):
                assert getattr(a, part).tobytes() == getattr(b, part).tobytes()

    def test_interleaved_is_kron_with_identity(self, name):
        # G kron I_2 sorted and in the scalar pattern's int32 index dtype,
        # half the index bytes of int64
        m = assemble(PATTERN_MESHES[name]())
        G = m.G
        assert isinstance(G, sp.spmatrix) and G.format == "csr"
        assert G.indices.dtype == G.indptr.dtype == np.int32
        rows = np.repeat(np.arange(G.shape[0]), np.diff(G.indptr))
        assert G.has_sorted_indices and np.all(np.diff(rows * G.shape[1] + G.indices) > 0)
        want = sp.kron(scalar_projection(m), sp.identity(2), format="csr")
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(G, part), getattr(want, part)), part

    def test_helmholtz_is_the_sparse_sum(self, name):
        m = assemble(PATTERN_MESHES[name]())
        for tau_tilde, theta1, theta2 in ((300.0, 0.5, 0.5), (600.0, 1.0, 0.3), (30.0, 0.0, 1.0)):
            A = helmholtz_matrix(m, tau_tilde, theta1, theta2, 9.81)
            want = (m.M + (tau_tilde ** 2 * 9.81 * theta1 * theta2) * m.S).tocsr()
            want.sort_indices()
            for part in ("indptr", "indices", "data"):
                assert getattr(A, part).tobytes() == getattr(want, part).tobytes(), part


def test_assembly_memory_peak():
    # On one shared pattern assembly's traced peak stays under twice the
    # bytes it returns (1.82 on this mesh, 2.05 with the element geometry
    # still held while G kron I_2 is laid out, 2.25 with G kron I_2 built
    # before S, Q1 and Q2); a COO triplet set scattered per operator peaked at 3.10.
    mesh = jittered_mesh(71, 71, np.random.default_rng(5))   # 5041 nodes
    assemble(mesh)                     # the first call pays scipy's lazy set-up
    tracemalloc.start()
    try:
        m = assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [m.M_L] + [a for mat in (m.M, m.G, m.S, m.Q1, m.Q2)
                        for a in (mat.data, mat.indices, mat.indptr)]
    owners = {id(a if a.base is None else a.base): a if a.base is None else a.base
              for a in arrays}                      # shared index arrays count once
    held = sum(a.nbytes for a in owners.values())
    assert peak <= 2.5 * held, peak / held


def test_sparse_operators_are_spmatrix():
    # the step multiplies them with *, the spmatrix matrix product; on a
    # sparse array (csr_array) * is elementwise, with no error
    m = assemble(two_triangle_square())
    sparse = [f.name for f in fields(m) if sp.issparse(getattr(m, f.name))]
    assert sparse == ["M", "G", "S", "Q1", "Q2"]
    for name in sparse:
        assert isinstance(getattr(m, name), sp.spmatrix), name
    assert isinstance(helmholtz_matrix(m, 300.0, 0.5, 0.5, 9.81), sp.spmatrix)


class TestHelmholtz:
    def test_theta_zero_gives_mass(self):
        m = assemble(two_triangle_square())
        for t1, t2 in ((0.0, 0.7), (0.7, 0.0)):
            A = helmholtz_matrix(m, 5.0, t1, t2, 9.81)
            assert np.allclose(A.toarray(), m.M.toarray(), atol=1e-16)

    def test_unit_combination(self):
        m = assemble(unit_triangle_mesh())
        A = helmholtz_matrix(m, 1.0, 1.0, 1.0, 1.0)
        assert np.allclose(A.toarray(), (m.M + m.S).toarray(), atol=1e-16)

    def test_positive_definite_on_random_meshes(self, rng):
        for _ in range(5):
            mesh = jittered_mesh(5, 5, rng)
            m = assemble(mesh)
            A = helmholtz_matrix(m, rng.uniform(1.0, 600.0),
                                 rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), 9.81)
            eig = np.linalg.eigvalsh(A.toarray())
            assert eig.min() > 0.0

    def test_parameter_validation(self):
        # tau_tilde and the thetas reach helmholtz_matrix through RunConfig,
        # which refuses out-of-range values before any matrix is built.
        with pytest.raises(ValueError):
            RunConfig(tau_tilde=-1.0)
        with pytest.raises(ValueError):
            RunConfig(tau_tilde=300.0, theta1=1.5)
