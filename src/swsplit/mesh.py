"""Unstructured P1 triangular meshes with bathymetry and boundary tags.

Provides loading/validation of the plain-text mesh format, counter-clockwise
triangles and the boundary node sets (open, wall with normals, corner) used
by the boundary-condition code; the element geometry (areas, basis
gradients) is :mod:`swsplit.fem`'s.  Its table reader :func:`parse_rows`
reads tide, wind and snapshots too, and :func:`parse_number` every other
number by the same rule.

Mesh file format (whitespace separated, comments as :func:`is_data_line` says):

    nnodes nelems
    x1 x2 H tag        # one line per node; tag: 0=interior 1=land 2=open
    i j k              # one line per element, 0-based node indices
"""
from __future__ import annotations

import contextlib
import itertools
import logging
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Mesh:
    """Validated CCW triangulation and boundary node sets, built complete
    by :func:`build_mesh` and never changed.

    Node data and topology only; :func:`swsplit.fem.assemble` derives the
    element areas and basis gradients, and the operators on them are
    :class:`swsplit.fem.FemMatrices`.
    """

    coords: np.ndarray      # (n_nodes, 2)
    depth: np.ndarray       # (n_nodes,) stationary depth H, clamped to h_min
    tags: np.ndarray        # (n_nodes,) INTERIOR/LAND/OPEN
    triangles: np.ndarray   # (n_tris, 3) CCW vertex indices
    open_nodes: np.ndarray = field(repr=False)     # tagged OPEN, ascending
    # boundary land nodes, ascending: on a straight wall, with unit outward
    # normals (n_walls, 2), or corners, clamped to zero velocity instead
    wall_nodes: np.ndarray = field(repr=False)
    wall_normals: np.ndarray = field(repr=False)
    corner_nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def build_mesh(coords, triangles, depth, tags, h_min=DEFAULT_H_MIN) -> Mesh:
    """Validate raw arrays, orient the triangles and derive the boundary sets.

    Clockwise triangles are reoriented (with a warning), depths below
    ``h_min`` are clamped (with a warning), degenerate elements, bad
    indices, nodes that no triangle uses, an empty triangulation and
    non-manifold edges raise :class:`MeshError`.
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
    if triangles.shape[0] == 0:
        raise MeshError("empty triangulation: no triangles")
    if triangles.min() < 0 or triangles.max() >= n:
        raise MeshError("triangle vertex index out of range")
    i, j, k = triangles.T
    repeats = np.flatnonzero((i == j) | (j == k) | (i == k))
    if repeats.size:
        raise MeshError(f"triangle {repeats[0]} repeats a vertex index")
    # a node outside every triangle would get a zero lumped mass
    unused = np.flatnonzero(np.bincount(triangles.ravel(), minlength=n) == 0)
    if unused.size:
        raise MeshError(f"node {unused[0]} belongs to no triangle")

    n_shallow = int(np.sum(depth < h_min))
    if n_shallow:
        n_nonpos = int(np.sum(depth <= 0.0))
        log.warning("clamping %d node depths to H_min=%g m (%d were <= 0)",
                    n_shallow, h_min, n_nonpos)
        depth = np.maximum(depth, h_min)

    # orientation fix, then the area floor: reversing a triangle only flips
    # the sign of its twice-signed area, bit for bit
    p0 = coords[triangles[:, 0]]
    p1 = coords[triangles[:, 1]]
    p2 = coords[triangles[:, 2]]
    twice_signed = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                    - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    cw = twice_signed < 0
    if np.any(cw):
        log.warning("reorienting %d clockwise triangles to CCW", int(np.sum(cw)))
        triangles[cw] = triangles[cw][:, [0, 2, 1]]
    area = 0.5 * np.abs(twice_signed)
    bad = np.flatnonzero(area < DEGENERATE_AREA)
    if bad.size:
        raise MeshError(f"triangle {bad[0]}: degenerate triangle, area {area[bad[0]]:g} m^2")

    wall_nodes, wall_normals, corner_nodes = _boundary_normals(coords, tags, triangles)
    return Mesh(coords=coords, depth=depth, tags=tags, triangles=triangles,
                open_nodes=np.flatnonzero(tags == OPEN),
                wall_nodes=wall_nodes, wall_normals=wall_normals, corner_nodes=corner_nodes)


def load_mesh(path, h_min=DEFAULT_H_MIN) -> Mesh:
    """Parse the plain-text mesh format and return a validated Mesh."""
    coords, depth, tags, triangles = _read_mesh(path)
    return build_mesh(coords, triangles, depth, tags, h_min=h_min)


def _read_mesh(path):
    """Node and element arrays of a mesh file, one conversion per block.

    Only arrays are returned, so the data-line list is freed before
    :func:`build_mesh` runs.
    """
    lines = data_lines(path)
    if not lines:
        raise MeshError(f"{path}: empty mesh file")

    nnodes, nelems = parse_rows(path, lines, 0, 1, (int, int),
                                "header `nnodes nelems`", MeshError)[0].tolist()
    if nnodes < 3 or nelems < 1:
        raise MeshError(f"{path}: need at least 3 nodes and 1 element")
    expected = 1 + nnodes + nelems
    if len(lines) != expected:
        raise MeshError(f"{path}: expected {expected} data lines, found {len(lines)}")

    nodes = parse_rows(path, lines, 1, nnodes, (float, float, float, int),
                       "node line", MeshError)
    triangles = parse_rows(path, lines, 1 + nnodes, nelems, (int, int, int),
                           "element line", MeshError).view(int).reshape(nelems, 3)
    coords = np.column_stack([nodes["f0"], nodes["f1"]])
    return coords, nodes["f2"], nodes["f3"], triangles


def is_data_line(line):
    """Whether ``line`` holds data: its first non-blank character is not ``#``."""
    return line.lstrip()[:1] not in ("", "#")


def data_lines(path):
    """The data lines of ``path``, newlines kept, read one line at a time."""
    with open(path) as fh:
        return [line for line in fh if is_data_line(line)]


def parse_rows(path, lines, first, count, kinds, what, error, delimiter=None):
    """Data lines ``first .. first + count - 1`` as one structured array
    of fields typed ``kinds``, split on ``delimiter`` (None: whitespace).

    The block is converted in one call.  Only when that raises are its
    lines walked in order, each field read by :func:`parse_number`, the
    rule config numbers follow too; the ``error`` raised names the file
    line and field of the first line with a wrong field count or a
    refused field.  If no line is refused, numpy's error is raised.
    """
    row = np.dtype([(f"f{i}", kind) for i, kind in enumerate(kinds)])
    block = lines[first:first + count]
    try:
        return np.loadtxt(block, dtype=row, delimiter=delimiter, comments=None, ndmin=1)
    except ValueError:
        for offset, line in enumerate(block):
            tokens = line.rstrip("\n").split(delimiter)
            if len(tokens) != len(kinds):
                problem = f"expected {what} ({len(kinds)} fields), got {len(tokens)}"
                break
            try:
                for tok, kind in zip(tokens, kinds):
                    parse_number(tok, kind)
            except ValueError:
                problem = f"bad value {tok!r} in {what}"   # the first refused field
                break
        else:
            raise
    with open(path) as fh:             # number the bad line by reading the file again
        numbered = (n for n, line in enumerate(fh, 1) if is_data_line(line))
        lineno = next(itertools.islice(numbered, first + offset, None))
    raise error(f"{path}:{lineno}: {problem}")


def parse_number(text, kind=float):
    """``text`` read as a table field of type ``kind`` (float or int) is:
    numpy's conversion in :func:`parse_rows` is Python's on ASCII text
    with no digit separators, integers within numpy's range."""
    field = text.strip()
    if field.isascii() and "_" not in field:
        with contextlib.suppress(ValueError):
            value = kind(field)
            if kind is float or np.iinfo(kind).min <= value <= np.iinfo(kind).max:
                return value
    raise ValueError(f"not {'an integer' if kind is int else 'a number'}: {text!r}")


def _boundary_edges(triangles, n_nodes):
    """Directed boundary edges (a, b), CCW around the domain.

    A boundary edge is one that a single triangle uses.  The same pass
    refuses a mesh that is not manifold, naming the first triangle that
    repeats an edge already used by two triangles, or by one in the same
    direction (a fold or an overlap, since both are CCW).
    """
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    undirected = np.minimum(a, b) * n_nodes + np.maximum(a, b)
    order = np.argsort(undirected, kind="stable")   # an edge's uses in triangle order
    keys, forward = undirected[order], (a < b)[order]
    new = np.diff(keys, prepend=-1, append=-1) != 0  # use i starts an edge (last: the end)
    repeat = ~new[1:-1]                               # use i + 1 repeats use i's edge
    # a repeat is bad if it runs the way the use before it does, or is a third use
    bad = order[1:][repeat & ((forward[1:] == forward[:-1]) | ~new[:-2])]
    if bad.size:
        e = bad.min()
        raise MeshError(f"triangle {e // 3}: edge {a[e]}-{b[e]} is not manifold "
                        f"(used by more than two triangles, or twice in the same direction)")
    once = order[new[:-1] & new[1:]]
    return a[once], b[once]


def _boundary_normals(coords, tags, triangles):
    """Wall nodes, their outward normals and corner nodes; also validates tags.

    Every node on a boundary edge must be tagged land or open, and only
    those may be tagged open.  The outward normal of a CCW-directed
    boundary edge (a -> b) is the edge tangent rotated clockwise.  A node
    starts as many boundary edges as it ends (its triangles are CCW
    fans), so one on two edges has one ``out`` and one ``into`` normal,
    and a wall node's normal is their normalised sum.
    """
    n = coords.shape[0]
    a, b = _boundary_edges(triangles, n)
    t = coords[b] - coords[a]
    normals = np.column_stack([t[:, 1], -t[:, 0]])
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    out, into = np.zeros((n, 2)), np.zeros((n, 2))
    out[a], into[b] = normals, normals
    ends = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    on_boundary = ends > 0
    for bad, what in ((on_boundary & (tags == INTERIOR), "boundary nodes tagged interior"),
                      (~on_boundary & (tags == OPEN), "interior nodes tagged open")):
        if bad.any():
            raise MeshError(f"{what}: {np.flatnonzero(bad).tolist()}")

    corner = (ends > 2) | (out[:, 0] * into[:, 0] + out[:, 1] * into[:, 1] < CORNER_ANGLE_COS)
    land = on_boundary & (tags == LAND)
    walls = np.flatnonzero(land & ~corner)
    # + 0.0: a sum starts from +0.0, so a -0.0 component reads +0.0
    mean = out[walls] + into[walls] + 0.0
    mean /= np.hypot(mean[:, 0], mean[:, 1])[:, None]
    return walls, mean, np.flatnonzero(land & corner)
