"""Unstructured P1 triangular meshes with bathymetry and boundary tags.

Provides loading/validation of the plain-text mesh format, per-element
geometry (areas, linear basis gradients) and the boundary machinery
(outward normals at land nodes) used by the boundary-condition code.

Mesh file format (whitespace separated, `#` starts a comment line):

    nnodes nelems
    x1 x2 H tag        # one line per node; tag: 0=interior 1=land 2=open
    i j k              # one line per element, 0-based node indices
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)

INTERIOR, LAND, OPEN = 0, 1, 2

DEFAULT_H_MIN = 0.05  # m, keeps the drag rate g|u|/(k1^2 H) finite
DEGENERATE_AREA = 1e-12  # m^2

# Land nodes whose adjacent boundary-edge normals differ by more than this
# angle are corners: the only velocity satisfying zero normal flow through
# both edges is zero.  Below the threshold the averaged normal is projected
# out instead.
CORNER_ANGLE_COS = np.cos(np.pi / 6.0)


class MeshError(ValueError):
    """Malformed mesh file or invalid mesh data."""


def triangle_geometry(coords):
    """Area and P1 basis gradients of a single triangle.

    Parameters
    ----------
    coords : (3, 2) array
        Vertex coordinates, any orientation.

    Returns
    -------
    area : float
        Unsigned triangle area.
    grads : (3, 2) ndarray
        Gradient of each vertex basis function; grads[i] is constant over
        the element and satisfies phi_i(v_j) = delta_ij.
    """
    coords = np.asarray(coords, dtype=float)
    e1 = coords[1] - coords[0]
    e2 = coords[2] - coords[0]
    twice_signed = e1[0] * e2[1] - e1[1] * e2[0]
    area = 0.5 * abs(twice_signed)
    if area < DEGENERATE_AREA:
        raise MeshError(f"degenerate triangle, area {area:g} m^2")
    g1 = np.array([coords[2, 1] - coords[0, 1], coords[0, 0] - coords[2, 0]]) / twice_signed
    g2 = np.array([coords[0, 1] - coords[1, 1], coords[1, 0] - coords[0, 0]]) / twice_signed
    # First gradient closes the partition of unity exactly in floating point.
    g0 = -(g1 + g2)
    return area, np.stack([g0, g1, g2])


@dataclass
class Mesh:
    """Validated triangulation with precomputed P1 geometry.

    Immutable after construction apart from
    :attr:`projection_operators`, which is assembled on first use and
    then cached; safe for shared concurrent reads.
    """

    coords: np.ndarray      # (n_nodes, 2)
    depth: np.ndarray       # (n_nodes,) stationary depth H, clamped to h_min
    tags: np.ndarray        # (n_nodes,) INTERIOR/LAND/OPEN
    triangles: np.ndarray   # (n_tris, 3) CCW vertex indices
    areas: np.ndarray = field(repr=False, default=None)
    grads: np.ndarray = field(repr=False, default=None)       # (n_tris, 3, 2)
    lumped_area: np.ndarray = field(repr=False, default=None)  # (n_nodes,)
    # unit outward normal per node (rows valid for land nodes on straight
    # walls); corner land nodes are clamped to zero velocity instead
    land_normals: np.ndarray = field(repr=False, default=None)
    land_corner: np.ndarray = field(repr=False, default=None)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def open_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.tags == OPEN)

    @property
    def land_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.tags == LAND)

    def total_area(self) -> float:
        return float(np.sum(self.areas))

    @cached_property
    def projection_operators(self):
        """Sparse pair (M, K) of the explicit sub-step's projection.

        Built by :func:`swsplit.fem.projection_operators` on the first
        sub-step rather than in :func:`build_mesh`, so it never adds to
        the peak of the mesh parser.
        """
        from .fem import projection_operators   # fem imports this module
        return projection_operators(self)


def build_mesh(coords, triangles, depth, tags, h_min=DEFAULT_H_MIN) -> Mesh:
    """Validate raw arrays and derive element geometry.

    Clockwise triangles are reoriented (with a warning), depths below
    ``h_min`` are clamped (with a warning), degenerate elements and bad
    indices raise :class:`MeshError`.
    """
    coords = np.array(coords, dtype=float)
    depth = np.array(depth, dtype=float)
    tags = np.array(tags, dtype=int)
    triangles = np.array(triangles, dtype=int)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise MeshError("coords must be (n_nodes, 2)")
    n = coords.shape[0]
    if depth.shape != (n,) or tags.shape != (n,):
        raise MeshError("depth/tags length does not match node count")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError("triangles must be (n_tris, 3)")
    if not np.all(np.isfinite(coords)) or not np.all(np.isfinite(depth)):
        raise MeshError("non-finite node data")
    if np.any(~np.isin(tags, (INTERIOR, LAND, OPEN))):
        raise MeshError("node tag outside {0, 1, 2}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= n):
        raise MeshError("triangle vertex index out of range")
    for t, (i, j, k) in enumerate(triangles):
        if i == j or j == k or i == k:
            raise MeshError(f"triangle {t} repeats a vertex index")

    n_shallow = int(np.sum(depth < h_min))
    if n_shallow:
        n_nonpos = int(np.sum(depth <= 0.0))
        log.warning("clamping %d node depths to H_min=%g m (%d were <= 0)",
                    n_shallow, h_min, n_nonpos)
        depth = np.maximum(depth, h_min)

    # orientation fix, then geometry
    p0 = coords[triangles[:, 0]]
    p1 = coords[triangles[:, 1]]
    p2 = coords[triangles[:, 2]]
    twice_signed = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                    - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    cw = twice_signed < 0
    if np.any(cw):
        log.warning("reorienting %d clockwise triangles to CCW", int(np.sum(cw)))
        triangles[cw] = triangles[cw][:, [0, 2, 1]]

    areas = np.empty(len(triangles))
    grads = np.empty((len(triangles), 3, 2))
    for t in range(len(triangles)):
        try:
            areas[t], grads[t] = triangle_geometry(coords[triangles[t]])
        except MeshError as exc:
            raise MeshError(f"triangle {t}: {exc}") from exc

    lumped = np.zeros(n)
    np.add.at(lumped, triangles.ravel(), np.repeat(areas / 3.0, 3))

    mesh = Mesh(coords=coords, depth=depth, tags=tags, triangles=triangles,
                areas=areas, grads=grads, lumped_area=lumped)
    mesh.land_normals, mesh.land_corner = _boundary_normals(mesh)
    return mesh


def load_mesh(path, h_min=DEFAULT_H_MIN) -> Mesh:
    """Parse the plain-text mesh format and return a validated Mesh."""
    tokens_per_line = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens_per_line.append((lineno, line.split()))

    if not tokens_per_line:
        raise MeshError(f"{path}: empty mesh file")

    def parse(lineno, tokens, kinds, what):
        if len(tokens) != len(kinds):
            raise MeshError(f"{path}:{lineno}: expected {what} "
                            f"({len(kinds)} fields), got {len(tokens)}")
        out = []
        for tok, kind in zip(tokens, kinds):
            try:
                out.append(kind(tok))
            except ValueError:
                raise MeshError(f"{path}:{lineno}: bad value {tok!r} in {what}") from None
        return out

    lineno, head = tokens_per_line[0]
    nnodes, nelems = parse(lineno, head, (int, int), "header `nnodes nelems`")
    if nnodes < 3 or nelems < 1:
        raise MeshError(f"{path}: need at least 3 nodes and 1 element")
    expected = 1 + nnodes + nelems
    if len(tokens_per_line) != expected:
        raise MeshError(f"{path}: expected {expected} data lines, "
                        f"found {len(tokens_per_line)}")

    coords = np.empty((nnodes, 2))
    depth = np.empty(nnodes)
    tags = np.empty(nnodes, dtype=int)
    for i in range(nnodes):
        lineno, toks = tokens_per_line[1 + i]
        x1, x2, h, tag = parse(lineno, toks, (float, float, float, int), "node line")
        coords[i] = (x1, x2)
        depth[i] = h
        tags[i] = tag

    triangles = np.empty((nelems, 3), dtype=int)
    for e in range(nelems):
        lineno, toks = tokens_per_line[1 + nnodes + e]
        triangles[e] = parse(lineno, toks, (int, int, int), "element line")

    return build_mesh(coords, triangles, depth, tags, h_min=h_min)


def _boundary_edges(mesh: Mesh):
    """Directed boundary edges (a, b), CCW around the domain."""
    seen = set()
    for i, j, k in mesh.triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            if (b, a) in seen:
                seen.discard((b, a))
            else:
                seen.add((int(a), int(b)))
    return sorted(seen)


def _boundary_normals(mesh: Mesh):
    """Per-node outward normal and corner flags; also validates tags.

    Every node on a boundary edge must be tagged land or open.  The
    outward normal of a CCW-directed boundary edge (a -> b) is the edge
    tangent rotated clockwise.
    """
    normals_per_node: dict[int, list[np.ndarray]] = {}
    bad = []
    for a, b in _boundary_edges(mesh):
        t = mesh.coords[b] - mesh.coords[a]
        nvec = np.array([t[1], -t[0]])
        norm = np.hypot(*nvec)
        if norm == 0.0:
            raise MeshError(f"zero-length boundary edge {a}-{b}")
        nvec /= norm
        for node in (a, b):
            if mesh.tags[node] == INTERIOR:
                bad.append(node)
            normals_per_node.setdefault(node, []).append(nvec)
    if bad:
        raise MeshError(f"boundary nodes tagged interior: {sorted(set(bad))}")

    land_normals = np.zeros((mesh.n_nodes, 2))
    land_corner = np.zeros(mesh.n_nodes, dtype=bool)
    for node, normals in normals_per_node.items():
        if len(normals) > 2:
            land_corner[node] = True
            continue
        if len(normals) == 2 and float(normals[0] @ normals[1]) < CORNER_ANGLE_COS:
            land_corner[node] = True
            continue
        mean = np.sum(normals, axis=0)
        mean /= np.hypot(*mean)
        land_normals[node] = mean
    return land_normals, land_corner
