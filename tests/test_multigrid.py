import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import jittered_channel, jittered_mesh
from swsplit import simulator
from swsplit.fem import assemble, helmholtz_matrix
from swsplit.implicit_step import ElevationSolver, conjugate_gradient, solve_elevation
from swsplit.multigrid import COARSE_SIZE, aggregate, build_hierarchy

G = 9.81


def basin_matrix(nx, seed, tau_tilde=600.0, theta=(0.5, 0.5), depth=None):
    """Mesh and Helmholtz matrix of a jittered 20 km basin (by default
    1-2 m deep, drawn per node)."""
    mesh = jittered_mesh(nx, nx, np.random.default_rng(seed), scale=20000.0, depth=depth)
    return mesh, helmholtz_matrix(assemble(mesh), tau_tilde, *theta, G)


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestHierarchy:
    def test_vcycle_symmetric_positive_definite(self):
        _, A = basin_matrix(25, 0)
        hierarchy = build_hierarchy(A)
        assert len(hierarchy.levels) >= 1 and hierarchy.sizes[-1] <= COARSE_SIZE
        n = A.shape[0]
        B = np.column_stack([hierarchy.vcycle(e) for e in np.eye(n)])
        assert np.max(np.abs(B - B.T)) <= 1e-12 * np.max(np.abs(B))
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, n))
        bx_y, x_by = hierarchy.vcycle(x) @ y, x @ hierarchy.vcycle(y)
        assert abs(bx_y - x_by) <= 1e-12 * abs(bx_y)
        assert np.linalg.eigvalsh(0.5 * (B + B.T))[0] > 0.0

    def test_build_is_bitwise_deterministic(self):
        _, A = basin_matrix(25, 2)
        first, second = build_hierarchy(A), build_hierarchy(A.copy())
        assert first.sizes == second.sizes
        for one, two in zip(first.levels, second.levels):
            for a, b in zip(one[:3], two[:3]):
                assert_same_csr(a, b)
            assert np.array_equal(one[3], two[3])
        assert np.array_equal(first.coarse, second.coarse)

    def test_restriction_is_the_sorted_transpose(self):
        _, A = basin_matrix(25, 2)
        hierarchy = build_hierarchy(A)
        assert len(hierarchy.levels) >= 1
        for _, P, R, _ in hierarchy.levels:
            coo = P.tocoo()
            transpose = sp.csr_matrix((coo.data, (coo.col, coo.row)), shape=P.shape[::-1])
            transpose.sort_indices()
            assert_same_csr(R, transpose)
            rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
            assert np.all((np.diff(R.indices) > 0) | (np.diff(rows) > 0))

    def test_vcycle_matches_transpose_reference(self, rng):
        _, A = basin_matrix(60, 6)
        hierarchy = build_hierarchy(A)
        assert len(hierarchy.levels) >= 2

        def reference(k, b):
            # the same V-cycle restricting with P.T, scipy's CSC transpose kernel
            if k == len(hierarchy.levels):
                return hierarchy.coarse @ b
            A_k, P, _, w = hierarchy.levels[k]
            x = w * b
            x += P @ reference(k + 1, P.T @ (b - A_k @ x))
            x += w * (b - A_k @ x)
            return x

        for _ in range(3):
            b = rng.standard_normal(A.shape[0])
            assert hierarchy.vcycle(b).tobytes() == reference(0, b).tobytes()

    def test_small_system_is_one_exact_level(self, rng):
        _, A = basin_matrix(10, 3)
        hierarchy = build_hierarchy(A)
        assert hierarchy.levels == [] and hierarchy.sizes == [100]
        b = rng.standard_normal(100)
        _, stats = conjugate_gradient(A, b, precondition=hierarchy.vcycle)
        assert stats.iterations == 1

    def test_aggregation_leftovers_join_pass_one_aggregates(self):
        # 0-1-2-5-4-3 path: 0 and 3 seed {0, 1} and {3, 4}; 2 and 5 are
        # left over, and 5 joins 3's aggregate through 4, not 2's through 2
        nbr = [[1], [0, 2], [1, 5], [4], [3, 5], [2, 4]]
        ptr = np.cumsum([0] + [len(ns) for ns in nbr]).tolist()
        agg, count = aggregate(ptr, sum(nbr, []))
        assert agg.tolist() == [0, 0, 0, 1, 1, 1] and count == 2

    @pytest.mark.parametrize("tau_tilde", [30.0, 60.0, 300.0])
    def test_every_level_at_most_half_its_parent(self, tau_tilde):
        # a small tau_tilde leaves A close to the mass matrix, with few
        # strong couplings: coarsening this channel at 60 s once stalled,
        # with levels 2600, 502, 447, 68
        mesh = jittered_channel(101, 26, 20000.0, 5000.0, np.random.default_rng(0))
        A = helmholtz_matrix(assemble(mesh), tau_tilde, 0.5, 0.5, G)
        sizes = ElevationSolver(A, mesh.open_nodes).hierarchy.sizes
        assert sizes[0] == 2600 and len(sizes) >= 2
        assert all(2 * coarse <= fine for fine, coarse in zip(sizes, sizes[1:])), sizes

    def test_no_strong_couplings_stops_with_diagonal(self, rng):
        n = COARSE_SIZE + 100
        A = sp.diags(np.arange(1.0, n + 1.0)) + 1e-3 * sp.eye(n, k=1) + 1e-3 * sp.eye(n, k=-1)
        hierarchy = build_hierarchy(A.tocsr())
        assert hierarchy.sizes == [n]
        b = rng.standard_normal(n)
        assert np.array_equal(hierarchy.vcycle(b), b * (1.0 / np.arange(1.0, n + 1.0)))


class TestPreconditionedSolve:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("theta", [(0.5, 0.5), (1.0, 0.0)], ids=["helmholtz", "mass"])
    @pytest.mark.parametrize("with_open", [False, True], ids=["closed", "open"])
    def test_matches_plain_cg(self, seed, theta, with_open):
        mesh, A = basin_matrix(24, seed, theta=theta)
        rng = np.random.default_rng(seed + 10)
        rhs = A @ rng.standard_normal(mesh.n_nodes)
        open_nodes = (np.flatnonzero(mesh.coords[:, 0] == 0.0) if with_open
                      else np.empty(0, dtype=int))
        values = rng.uniform(-0.1, 0.1, open_nodes.size)
        got, stats = solve_elevation(ElevationSolver(A, open_nodes), rhs, values, tol=1e-12)

        free = np.setdiff1d(np.arange(mesh.n_nodes), open_nodes)
        A_csr = A.tocsr()
        b = rhs[free] - A_csr[free][:, open_nodes] @ values
        want_free, plain = conjugate_gradient(A_csr[free][:, free], b, tol=1e-12)
        want = np.zeros(mesh.n_nodes)
        want[free], want[open_nodes] = want_free, values
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
        assert stats.residual <= 1e-12
        assert stats.iterations < plain.iterations

    def test_solver_reused_across_right_sides(self, rng):
        mesh, A = basin_matrix(24, 4)
        open_nodes = np.flatnonzero(mesh.coords[:, 1] == 0.0)
        solver = ElevationSolver(A, open_nodes)
        for _ in range(3):
            rhs = rng.standard_normal(mesh.n_nodes)
            values = rng.uniform(-0.1, 0.1, open_nodes.size)
            got, _ = solve_elevation(solver, rhs, values, tol=1e-12)
            fresh, _ = solve_elevation(ElevationSolver(A, open_nodes), rhs, values, tol=1e-12)
            assert np.array_equal(got, fresh)

    def test_iteration_bound_at_ten_thousand_nodes(self, rng):
        mesh, A = basin_matrix(100, 5, tau_tilde=600.0)
        assert mesh.n_nodes == 10_000
        rhs = A @ rng.standard_normal(mesh.n_nodes)
        _, stats = solve_elevation(ElevationSolver(A, np.empty(0, dtype=int)), rhs,
                                   np.empty(0), tol=1e-10)
        assert stats.iterations <= 40


def sparse_parts(matrix):
    return (matrix.data, matrix.indices, matrix.indptr) if sp.issparse(matrix) else (matrix,)


class TestStorage:
    def test_closed_basin_solves_with_a_itself(self):
        mesh, A = basin_matrix(24, 0)
        assert mesh.open_nodes.size == 0
        solver = ElevationSolver(A, mesh.open_nodes)
        for mine, given in zip(sparse_parts(solver.A_ff), sparse_parts(A)):
            assert np.shares_memory(mine, given)
        assert solver.A_fo.shape == (mesh.n_nodes, 0)
        assert np.shares_memory(solver.hierarchy.levels[0][0].data, A.data)

    def test_levels_prolong_through_the_restriction(self):
        _, A = basin_matrix(60, 6)
        hierarchy = build_hierarchy(A)
        assert len(hierarchy.levels) >= 2
        for _, P, R, _ in hierarchy.levels:
            assert P.shape == R.shape[::-1]
            for prolong, restrict in zip(sparse_parts(P), sparse_parts(R)):
                assert np.shares_memory(prolong, restrict)

    def test_solver_build_memory_peak(self):
        # The build's traced peak over the bytes the solver keeps (every
        # array it reaches, shared ones once): 1.48 on this closed basin,
        # 1.77 when A_ff was a row- then column-sliced copy of A and each
        # level kept P beside R = P^T.  The peak is now the strength graph
        # of the finest level.
        mesh = jittered_mesh(71, 71, np.random.default_rng(5), scale=20000.0)   # 5041 nodes
        matrices, cfg = assemble(mesh), simulator.RunConfig()
        simulator.elevation_solver(matrices, mesh, cfg, G)   # the first call pays lazy set-up
        tracemalloc.start()
        try:
            solver = simulator.elevation_solver(matrices, mesh, cfg, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.open_nodes.size == 0 and len(solver.hierarchy.levels) >= 2
        parts = [solver.free, solver.open_nodes, *sparse_parts(solver.A_ff),
                 *sparse_parts(solver.A_fo), *sparse_parts(solver.hierarchy.coarse)]
        for level in solver.hierarchy.levels:
            parts += [p for matrix in level for p in sparse_parts(matrix)]
        owners = {}
        for a in parts:
            while isinstance(a.base, np.ndarray):
                a = a.base
            owners[id(a)] = a
        held = sum(a.nbytes for a in owners.values())
        assert peak <= 1.65 * held, peak / held
