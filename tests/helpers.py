"""Shared mesh builders, a step driver and independent oracles for the
test suite.

:func:`advance` is a driver, not an independent oracle: it runs the
package's own ``assemble``, ``elevation_solver`` and ``step`` as
``simulator.run`` does, so its result checks nothing until a test holds
it against an exact answer, a recursion or another run.
:func:`observed_orders` turns a refinement study's errors into orders.

The oracles deliberately avoid the package's own formulas: basis
functions come from solving the 3x3 Vandermonde system, integrals from a
three-point Gauss rule (edge midpoints, exact for quadratics), the
sub-step projection from an element gather/scatter, the nodal sources
term by term, the sub-step in its real two-stage form, roots from
bisection, snapshot text from a row-by-row writer, mesh geometry from a
per-triangle loop and a set walk over the edges, mesh numbers from
`float`/`int` on each token.  The one exception is the assembly oracle:
it is the package's own element formulas, each operator scattered on its
own through COO triplets and scipy's conversion to CSR, so it checks the
shared sparsity pattern and its element-order sums, not the formulas.
"""
from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import scipy.sparse as sp

from swsplit.config import Config
from swsplit.explicit_step import sub_cycle_work, taylor_galerkin_increment
from swsplit.fem import _triangle_geometry, assemble
from swsplit.mesh import INTERIOR, LAND, OPEN, Mesh, build_mesh
from swsplit.simulator import RunConfig, elevation_solver, step
from swsplit.stability import PhysicalParams
from swsplit.state import State


# ---------------------------------------------------------------- meshes

def rect_mesh_arrays(nx, ny, Lx, Ly, depth=2.0, boundary_tag=LAND):
    """Structured triangulated rectangle; boundary nodes tagged as given."""
    xs = np.linspace(0.0, Lx, nx)
    ys = np.linspace(0.0, Ly, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * ny + j

    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    tags = np.full(nx * ny, INTERIOR, dtype=int)
    for i in range(nx):
        for j in range(ny):
            if i in (0, nx - 1) or j in (0, ny - 1):
                tags[nid(i, j)] = boundary_tag
    if np.isscalar(depth):
        depth = np.full(nx * ny, float(depth))
    return coords, np.array(tris), np.asarray(depth, dtype=float), tags


def rect_mesh(nx, ny, Lx, Ly, depth=2.0, boundary_tag=LAND, h_min=0.05) -> Mesh:
    coords, tris, d, tags = rect_mesh_arrays(nx, ny, Lx, Ly, depth, boundary_tag)
    return build_mesh(coords, tris, d, tags, h_min=h_min)


def jittered_mesh(nx, ny, rng, scale=1.0, depth=None) -> Mesh:
    """Unit-scale rectangle with interior nodes perturbed (still valid CCW)."""
    coords, tris, d, tags = rect_mesh_arrays(nx, ny, scale, scale, 1.0)
    h = scale / (max(nx, ny) - 1)
    interior = tags == INTERIOR
    coords[interior] += rng.uniform(-0.2 * h, 0.2 * h, size=(interior.sum(), 2))
    if depth is None:
        d = 1.0 + rng.uniform(0.0, 1.0, size=len(coords))
    else:
        d = np.full(len(coords), float(depth))
    return build_mesh(coords, tris, d, tags)


def channel_mesh(nx, ny, Lx, Ly, depth=2.0, h_min=0.05) -> Mesh:
    """Rectangle with the x = 0 edge open (tidal mouth), other walls land."""
    coords, tris, d, tags = rect_mesh_arrays(nx, ny, Lx, Ly, depth)
    on_west = coords[:, 0] == 0.0
    tags[on_west & (tags == LAND)] = OPEN
    return build_mesh(coords, tris, d, tags, h_min=h_min)


def jittered_channel(nx, ny, Lx, Ly, rng) -> Mesh:
    """Channel with the x = 0 edge open and interior nodes perturbed by up
    to 0.2 of the grid spacing; 6 m deep at the mouth, shoaling linearly
    to 0.5 m at the head."""
    coords, tris, _, tags = rect_mesh_arrays(nx, ny, Lx, Ly)
    h = min(Lx / (nx - 1), Ly / (ny - 1))
    interior = tags == INTERIOR
    coords[interior] += rng.uniform(-0.2 * h, 0.2 * h, size=(interior.sum(), 2))
    tags[(coords[:, 0] == 0.0) & (tags == LAND)] = OPEN
    return build_mesh(coords, tris, 6.0 - 5.5 * coords[:, 0] / Lx, tags)


def element_geometry(mesh: Mesh):
    """The element areas and basis gradients that ``assemble`` derives."""
    return _triangle_geometry(mesh.coords[mesh.triangles])


def unit_triangle_mesh(depth=1.0) -> Mesh:
    return build_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]],
                      [depth] * 3, [LAND] * 3)


def two_triangle_square(depth=1.0, tag=LAND) -> Mesh:
    return build_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                      [[0, 1, 2], [0, 2, 3]], [depth] * 4, [tag] * 4)


def mesh_text(coords, tris, depth, tags, comment=None) -> str:
    """Render arrays in the mesh file format."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{len(coords)} {len(tris)}")
    for (x, y), h, tag in zip(coords, depth, tags):
        lines.append(f"{float(x)!r} {float(y)!r} {float(h)!r} {int(tag)}")
    for i, j, k in tris:
        lines.append(f"{i} {j} {k}")
    return "\n".join(lines) + "\n"


def random_triangle(rng, min_area=0.05):
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(3, 2))
        e1 = pts[1] - pts[0]
        e2 = pts[2] - pts[0]
        if 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0]) >= min_area:
            return pts


# ---------------------------------------------------------------- driver

def advance(mesh: Mesh, state, params, cfg, forcings, n_steps):
    """(state, info) of the last of ``n_steps`` outer steps from ``state``.

    The operators are assembled and the elevation solver is built once,
    as ``simulator.run`` does, and every step goes through
    ``simulator.step``; ``info`` is None when ``n_steps`` is 0.
    """
    matrices = assemble(mesh)
    solver = elevation_solver(matrices, mesh, cfg, params.g)
    info = None
    for _ in range(n_steps):
        state, info = step(state, mesh, matrices, params, cfg, forcings, solver)
    return state, info


def observed_orders(steps, errors):
    """log(e2 / e1) / log(h2 / h1) between successive runs."""
    steps, errors = np.asarray(steps, dtype=float), np.asarray(errors, dtype=float)
    return np.log(errors[1:] / errors[:-1]) / np.log(steps[1:] / steps[:-1])


# ------------------------------------------------------------- P1 oracle

def basis_coefficients(coords):
    """Coefficients (a, b, c) of each phi_i = a + b x + c y via linear solve."""
    V = np.column_stack([np.ones(3), coords[:, 0], coords[:, 1]])
    return np.linalg.solve(V, np.eye(3))  # column i: coefficients of phi_i


def eval_basis(coords, points):
    """phi_i evaluated at given points, shape (len(points), 3)."""
    C = basis_coefficients(np.asarray(coords, dtype=float))
    P = np.column_stack([np.ones(len(points)), points[:, 0], points[:, 1]])
    return P @ C


def basis_gradients(coords):
    """Gradients from the Vandermonde solve (independent of the package)."""
    C = basis_coefficients(np.asarray(coords, dtype=float))
    return C[1:, :].T  # (3, 2)


def triangle_area(coords):
    e1 = coords[1] - coords[0]
    e2 = coords[2] - coords[0]
    return 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])


def gauss3_points(coords):
    """Edge-midpoint rule: degree-2 exact, weights area/3."""
    mids = np.array([(coords[0] + coords[1]) / 2.0,
                     (coords[1] + coords[2]) / 2.0,
                     (coords[2] + coords[0]) / 2.0])
    return mids, np.full(3, triangle_area(coords) / 3.0)


def element_matrices_oracle(coords, depth3):
    """Element mass/stiffness/gradient matrices by quadrature only."""
    coords = np.asarray(coords, dtype=float)
    pts, w = gauss3_points(coords)
    phi = eval_basis(coords, pts)            # (3 qp, 3 basis)
    grads = basis_gradients(coords)          # constant
    hbar = float(np.mean(depth3))
    M = np.einsum("q,qi,qj->ij", w, phi, phi)
    S = hbar * np.sum(w) * (grads @ grads.T)
    Q1 = np.einsum("q,qi->i", w, phi)[:, None] * grads[None, :, 0]
    Q2 = np.einsum("q,qi->i", w, phi)[:, None] * grads[None, :, 1]
    return M, S, Q1, Q2


def dense_global_oracle(mesh: Mesh):
    """Dense global M, S, Q1, Q2 assembled purely from the oracle."""
    n = mesh.n_nodes
    M = np.zeros((n, n))
    S = np.zeros((n, n))
    Q1 = np.zeros((n, n))
    Q2 = np.zeros((n, n))
    for tri in mesh.triangles:
        Me, Se, Q1e, Q2e = element_matrices_oracle(mesh.coords[tri], mesh.depth[tri])
        for a in range(3):
            for b in range(3):
                M[tri[a], tri[b]] += Me[a, b]
                S[tri[a], tri[b]] += Se[a, b]
                Q1[tri[a], tri[b]] += Q1e[a, b]
                Q2[tri[a], tri[b]] += Q2e[a, b]
    return M, S, Q1, Q2


def coo_operators(mesh: Mesh):
    """M, the scalar G = M_L^-1 (M_L + P), S, Q1 and Q2, each assembled on
    its own from (n_tris, 3, 3) element blocks through COO triplets."""
    tris = mesh.triangles
    n = mesh.n_nodes
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()

    def scatter(el):
        mat = sp.coo_matrix((np.ascontiguousarray(el).ravel(), (rows, cols)),
                            shape=(n, n)).tocsr()
        mat.sort_indices()
        return mat

    areas, grads = element_geometry(mesh)
    area_el = areas[:, None, None]
    shape = (len(tris), 3, 3)
    M = scatter(area_el * ((np.ones((3, 3)) + np.eye(3)) / 12.0))
    G = scatter(area_el * ((np.ones((3, 3)) + 3.0 * np.eye(3)) / 9.0))
    G.data /= np.repeat(np.asarray(M.sum(axis=1)).ravel(), np.diff(G.indptr))
    hbar = mesh.depth[tris].mean(axis=1)
    S = scatter((areas * hbar)[:, None, None] * np.einsum("eik,ejk->eij", grads, grads))
    Q1, Q2 = (scatter(np.broadcast_to(((areas / 3.0)[:, None] * grads[:, :, k])[:, None, :],
                                      shape)) for k in (0, 1))
    return M, G, S, Q1, Q2


# ------------------------------------------------------ projection oracle

def element_lumped_projection(mesh: Mesh, r_half, r_start):
    """M_L^-1 [ M (r_half + r_start) - element-mean integral of r_start ].

    Element-level form of the explicit sub-step's projected right side:
    gathers each element's nodal values and scatters the consistent-mass
    action and the mean term back in element index order, and divides
    by its own lumped area (a third of each element's area per vertex).
    """
    tris = mesh.triangles
    areas = element_geometry(mesh)[0]
    w = r_half + r_start
    w_el = w[tris]                       # (E, 3)
    w_sum = w_el.sum(axis=1)
    mean_el = r_start[tris].sum(axis=1) / 3.0
    # consistent mass row action: (A/12) (w_j + sum_element w)
    contrib = (areas / 12.0)[:, None] * (w_el + w_sum[:, None]) \
        - (areas / 3.0 * mean_el)[:, None]
    rhs = np.zeros(mesh.n_nodes)
    np.add.at(rhs, tris.ravel(), contrib.ravel())
    lumped = np.zeros(mesh.n_nodes)
    np.add.at(lumped, tris.ravel(), np.repeat(areas / 3.0, 3))
    return rhs / lumped


# ------------------------------------------------------- velocity

def velocity(u1, u2):
    """Complex velocity u1 + i u2 of two broadcastable real parts, set part
    by part: the sum u1 + 1j * u2 would turn a -0.0 u1 into +0.0 and an
    infinite u2 into a nan u1."""
    u1, u2 = np.broadcast_arrays(np.asarray(u1, dtype=float), np.asarray(u2, dtype=float))
    u = np.empty(u1.shape, dtype=complex)
    u.real, u.imag = u1, u2
    return u


# ------------------------------------------------------- source oracle

def source_terms(state, mesh: Mesh, params, wind=(0.0, 0.0)):
    """Nodal source pair (r1, r2) evaluated at ``state``.

    r1 = k0 u2 - g u1 |u| / (k1^2 h) + xi |v| v1 / h and the u1 <-> u2
    antisymmetric counterpart, with h = max(H + eta, h_min).
    """
    h = np.maximum(mesh.depth + state.eta, params.h_min)
    u1, u2 = state.u.real, state.u.imag
    drag = params.g / (params.k1 ** 2 * h) * np.sqrt(u1 * u1 + u2 * u2)
    r1 = params.k0 * u2 - drag * u1
    r2 = -params.k0 * u1 - drag * u2
    v1, v2 = wind
    wind_speed = math.hypot(v1, v2)
    if wind_speed:
        r1 += params.xi / h * (wind_speed * v1)
        r2 += params.xi / h * (wind_speed * v2)
    return r1, r2


# ------------------------------------------------------- sub-step oracle

def real_taylor_galerkin_increment(state, mesh: Mesh, params, tau, wind=(0.0, 0.0)):
    """(d_u1, d_u2) of one explicit sub-step in its real two-stage form.

    Stage one is :func:`source_terms` at ``state``; stage two evaluates
    the sources at the half-step velocities u + tau/2 r with the drag
    rate of the start and the wind held; the increment is tau times
    :func:`element_lumped_projection` of (r_half, r_start), per component.
    """
    r1, r2 = source_terms(state, mesh, params, wind)
    w1, w2 = source_terms(State(state.eta, np.zeros(mesh.n_nodes, dtype=complex)),
                          mesh, params, wind)
    h = np.maximum(mesh.depth + state.eta, params.h_min)
    u1, u2 = state.u.real, state.u.imag
    drag = params.g / (params.k1 ** 2 * h) * np.hypot(u1, u2)
    u1_half, u2_half = u1 + 0.5 * tau * r1, u2 + 0.5 * tau * r2
    r1_half = params.k0 * u2_half - drag * u1_half + w1
    r2_half = -params.k0 * u1_half - drag * u2_half + w2
    return (tau * element_lumped_projection(mesh, r1_half, r1),
            tau * element_lumped_projection(mesh, r2_half, r2))


def substep_increment(state, wind, matrices, params, tau, frozen):
    """(d_u1, d_u2) of ``taylor_galerkin_increment`` called as the sub-cycle
    calls it, on a copy of ``state.u`` with a fresh :func:`sub_cycle_work`."""
    inc = taylor_galerkin_increment(state.u.copy(), wind, matrices,
                                    work=sub_cycle_work(frozen, params, tau))
    return inc.real.copy(), inc.imag.copy()


# ----------------------------------------------------------- mesh oracle

def token_parse(path):
    """coords, depth, tags, triangles of a mesh file, token by token."""
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                rows.append(line.split())
    nnodes = int(rows[0][0])
    nodes, elements = rows[1:1 + nnodes], rows[1 + nnodes:]
    coords = np.array([[float(x1), float(x2)] for x1, x2, _, _ in nodes])
    depth = np.array([float(h) for _, _, h, _ in nodes])
    tags = np.array([int(tag) for *_, tag in nodes])
    triangles = np.array([[int(v) for v in element] for element in elements])
    return coords, depth, tags, triangles


def loop_mesh_geometry(coords, triangles, tags):
    """Derived mesh arrays built one triangle and one edge at a time.

    Returns the CCW triangles that ``build_mesh`` derives, the areas and
    gradients that ``assemble`` derives from them, and per node a boundary
    flag, a corner flag and the mean outward normal (zero at corners),
    from a loop over triangles and a Python-set walk over the directed
    edges.
    """
    from swsplit.mesh import CORNER_ANGLE_COS
    coords = np.asarray(coords, dtype=float)
    triangles = np.array(triangles)
    n = len(coords)
    areas = np.empty(len(triangles))
    grads = np.empty((len(triangles), 3, 2))
    for t in range(len(triangles)):
        p = coords[triangles[t]]
        twice_signed = ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                        - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0]))
        if twice_signed < 0:
            triangles[t] = triangles[t][[0, 2, 1]]
            p = coords[triangles[t]]
        e1 = p[1] - p[0]
        e2 = p[2] - p[0]
        twice_signed = e1[0] * e2[1] - e1[1] * e2[0]
        areas[t] = 0.5 * abs(twice_signed)
        g1 = np.array([p[2, 1] - p[0, 1], p[0, 0] - p[2, 0]]) / twice_signed
        g2 = np.array([p[0, 1] - p[1, 1], p[1, 0] - p[0, 0]]) / twice_signed
        grads[t] = np.stack([-(g1 + g2), g1, g2])

    seen = set()
    for i, j, k in triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            if (b, a) in seen:
                seen.discard((b, a))
            else:
                seen.add((int(a), int(b)))
    normals_per_node = {}
    for a, b in sorted(seen):
        t = coords[b] - coords[a]
        nvec = np.array([t[1], -t[0]])
        nvec /= np.hypot(*nvec)
        for node in (a, b):
            assert tags[node] != INTERIOR, "oracle expects valid boundary tags"
            normals_per_node.setdefault(node, []).append(nvec)
    boundary = np.zeros(n, dtype=bool)
    node_normals = np.zeros((n, 2))
    corner = np.zeros(n, dtype=bool)
    for node, normals in normals_per_node.items():
        boundary[node] = True
        if len(normals) > 2 or (len(normals) == 2
                                and float(normals[0] @ normals[1]) < CORNER_ANGLE_COS):
            corner[node] = True
            continue
        mean = np.sum(normals, axis=0)
        mean /= np.hypot(*mean)
        node_normals[node] = mean
    return dict(triangles=triangles, areas=areas, grads=grads, boundary=boundary,
                normals=node_normals, corner=corner, boundary_edges=sorted(seen))


# ------------------------------------------------------- snapshot oracle

def row_by_row_snapshot(path, mesh: Mesh, state):
    """Snapshot CSV written one row and one numpy scalar at a time."""
    x1, x2 = mesh.coords[:, 0], mesh.coords[:, 1]
    with open(path, "w") as fh:
        fh.write(f"# t={float(state.t)!r}\nnode,x1,x2,eta,u1,u2\n")
        for i in range(mesh.n_nodes):
            fh.write(f"{i},{float(x1[i])!r},{float(x2[i])!r},"
                     f"{float(state.eta[i])!r},{float(state.u[i].real)!r},"
                     f"{float(state.u[i].imag)!r}\n")


# --------------------------------------------------------- cubic oracle

def bisect_root(f, lo, hi, iters=100):
    flo, fhi = f(lo), f(hi)
    assert flo < 0.0 < fhi, "oracle bracket does not straddle the root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cubic_value(a, b, c, d, t):
    return ((a * t - b) * t + c) * t - d


# ---------------------------------------------------------------- config keys

def flat_config_fields():
    """The fields behind the flat config keys: every field of the two
    settings objects, then Config's own apart from those two."""
    return [f for cls in (PhysicalParams, RunConfig, Config) for f in fields(cls)
            if f.init and f.name not in ("params", "run_config")]
