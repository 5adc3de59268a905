import logging
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (element_geometry, eval_basis, jittered_mesh, loop_mesh_geometry,
                     mesh_text, rect_mesh, rect_mesh_arrays, token_parse)
from swsplit.config import parse_config_text
from swsplit.forcing import ForcingError, load_tide, load_wind
from swsplit.mesh import (INTERIOR, LAND, OPEN, MeshError, _boundary_edges, build_mesh,
                          data_lines, load_mesh)
from swsplit.simulator import load_snapshot

DEMO_MESH = Path(__file__).resolve().parents[1] / "demo" / "channel.mesh"

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestBuildMesh:
    def test_clockwise_fixed(self, caplog):
        with caplog.at_level(logging.WARNING, logger="swsplit.mesh"):
            mesh = build_mesh(UNIT_TRI, [[0, 2, 1]], [1.0] * 3, [LAND] * 3)
        assert element_geometry(mesh)[0][0] == 0.5
        assert "reorienting" in caplog.text
        # gradient of each basis still matches the CCW result
        assert np.allclose(sorted(mesh.triangles[0]), [0, 1, 2])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(MeshError, match="repeats"):
            build_mesh(UNIT_TRI, [[0, 1, 1]], [1.0] * 3, [LAND] * 3)

    def test_bad_index_rejected(self):
        with pytest.raises(MeshError, match="out of range"):
            build_mesh(UNIT_TRI, [[0, 1, 7]], [1.0] * 3, [LAND] * 3)

    def test_depth_clamped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="swsplit.mesh"):
            mesh = build_mesh(UNIT_TRI, [[0, 1, 2]], [-0.3, 0.01, 1.0], [LAND] * 3)
        assert np.all(mesh.depth >= 0.05)
        assert mesh.depth[2] == 1.0
        assert "clamping" in caplog.text

    def test_interior_tag_on_boundary_rejected(self):
        with pytest.raises(MeshError, match="tagged interior"):
            build_mesh(UNIT_TRI, [[0, 1, 2]], [1.0] * 3, [INTERIOR, LAND, LAND])

    def test_open_tag_on_interior_rejected(self):
        # node 31 of the demo is an interior gauge; tagged open it would
        # take the tide in the middle of the channel
        coords, depth, tags, triangles = token_parse(DEMO_MESH)
        assert tags[31] == INTERIOR
        build_mesh(coords, triangles, depth, tags)
        tags[[31, 30]] = OPEN
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, triangles, depth, tags)
        assert str(excinfo.value) == "interior nodes tagged open: [30, 31]"

    def test_total_area_invariant_under_renumbering(self, rng):
        mesh = rect_mesh(5, 4, 2.0, 1.0)
        perm = rng.permutation(mesh.n_nodes)
        inv = np.argsort(perm)
        mesh2 = build_mesh(mesh.coords[inv], perm[mesh.triangles],
                           mesh.depth[inv], mesh.tags[inv])
        areas = element_geometry(mesh)[0]
        assert element_geometry(mesh2)[0].sum() == pytest.approx(areas.sum(), rel=1e-14)
        assert areas.sum() == pytest.approx(2.0, rel=1e-12)

    def test_keeps_no_element_geometry(self):
        # A built mesh holds its node data, triangles and boundary sets; the
        # element areas and gradients (56 bytes a triangle, 2.37 times these
        # bytes when the mesh kept them) are assemble's.
        source = jittered_mesh(71, 71, np.random.default_rng(5))   # 9800 triangles
        arrays = (source.coords, source.triangles, source.depth, source.tags)
        build_mesh(*arrays)                # the first call pays numpy's lazy set-up
        tracemalloc.start()
        try:
            mesh = build_mesh(*arrays)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        own = sum(getattr(mesh, name).nbytes for name in (
            "coords", "depth", "tags", "triangles",
            "open_nodes", "wall_nodes", "wall_normals", "corner_nodes"))
        assert kept <= 1.25 * own, kept / own

    def test_corner_detection_on_rectangle(self):
        mesh = rect_mesh(4, 4, 1.0, 1.0)
        corners = {0, 3, 12, 15}
        assert set(mesh.corner_nodes.tolist()) == corners
        # every other boundary node is on a straight wall; the one at
        # (i=1, j=0) on the y=0 edge has outward normal (0, -1)
        assert mesh.wall_nodes.tolist() == [1, 2, 4, 7, 8, 11, 13, 14]
        assert mesh.wall_normals.shape == (8, 2)
        assert np.allclose(mesh.wall_normals[2], [0.0, -1.0], atol=1e-14)


class TestLoadMesh:
    def write(self, tmp_path, text):
        path = tmp_path / "mesh.txt"
        path.write_text(text)
        return path

    def test_single_triangle_roundtrip(self, tmp_path):
        text = mesh_text(UNIT_TRI, [[0, 1, 2]], [1.0] * 3, [LAND] * 3,
                         comment="hand example")
        mesh = load_mesh(self.write(tmp_path, text))
        assert mesh.n_nodes == 3 and mesh.n_triangles == 1
        areas, grads = element_geometry(mesh)
        assert areas[0] == 0.5
        assert np.array_equal(grads[0], [[-1, -1], [1, 0], [0, 1]])

    def test_open_and_land_tags(self, tmp_path):
        coords, tris, depth, tags = rect_mesh_arrays(3, 3, 1.0, 1.0)
        tags[tags == LAND] = OPEN
        mesh = load_mesh(self.write(tmp_path, mesh_text(coords, tris, depth, tags)))
        assert len(mesh.open_nodes) == 8
        assert mesh.wall_nodes.size == mesh.corner_nodes.size == 0
        assert mesh.wall_normals.shape == (0, 2)

    def test_wrong_counts(self, tmp_path):
        text = "3 1\n0 0 1 1\n1 0 1 1\n0 1 1 1\n0 1 2\n0 1 2\n"
        with pytest.raises(MeshError, match="data lines"):
            load_mesh(self.write(tmp_path, text))

    def test_malformed_value(self, tmp_path):
        text = "3 1\n0 0 1 1\n1 zero 1 1\n0 1 1 1\n0 1 2\n"
        with pytest.raises(MeshError, match="bad value"):
            load_mesh(self.write(tmp_path, text))

    def test_malformed_field_count(self, tmp_path):
        text = "3 1\n0 0 1\n1 0 1 1\n0 1 1 1\n0 1 2\n"
        with pytest.raises(MeshError, match="expected node line"):
            load_mesh(self.write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_mesh(tmp_path / "nope.txt")


# Four nodes, two triangles; `# ...` and blank lines are skipped but
# counted, so the node lines are file lines 4-7 and the elements 9-10.
SQUARE_LINES = ["# unit square", "", "4 2", "0 0 1 1", "1 0 1 1", "1 1 1 1",
                "0 1 1 1", "# elements", "0 1 2", "0 2 3"]


class TestLoadErrors:
    """Every MeshError of the loader, with its exact text."""

    def check(self, tmp_path, lines, expected, edit=None):
        lines = list(lines)
        if edit:
            for lineno, line in edit.items():
                lines[lineno - 1] = line
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError) as excinfo:
            load_mesh(path)
        assert str(excinfo.value) == expected.format(path=path)

    def test_square_loads(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(SQUARE_LINES) + "\n")
        mesh = load_mesh(path)
        assert mesh.n_nodes == 4 and mesh.n_triangles == 2
        assert np.array_equal(mesh.tags, [LAND] * 4)

    def test_empty_file(self, tmp_path):
        self.check(tmp_path, ["# nothing", "  "], "{path}: empty mesh file")

    @pytest.mark.parametrize("header, expected", [
        ("4", "{path}:3: expected header `nnodes nelems` (2 fields), got 1"),
        ("4 2.0", "{path}:3: bad value '2.0' in header `nnodes nelems`"),
        ("2 2", "{path}: need at least 3 nodes and 1 element"),
        ("4 0", "{path}: need at least 3 nodes and 1 element"),
    ])
    def test_header(self, tmp_path, header, expected):
        self.check(tmp_path, SQUARE_LINES, expected, {3: header})

    @pytest.mark.parametrize("line, token", [
        ("1 zero 1 1", "zero"), ("1 0 1.0.0 1", "1.0.0"), ("0x1 0 1 1", "0x1"),
    ])
    def test_bad_float_token(self, tmp_path, line, token):
        self.check(tmp_path, SQUARE_LINES,
                   f"{{path}}:5: bad value {token!r} in node line", {5: line})

    @pytest.mark.parametrize("tag", ["1.5", "1e0", "1.", "one"])
    def test_non_integer_tag(self, tmp_path, tag):
        self.check(tmp_path, SQUARE_LINES,
                   f"{{path}}:6: bad value {tag!r} in node line", {6: f"1 1 1 {tag}"})

    def test_first_bad_token_of_the_line(self, tmp_path):
        self.check(tmp_path, SQUARE_LINES, "{path}:7: bad value 'y' in node line",
                   {5: "1 0 1 1", 7: "0 y z 1"})

    def test_first_bad_line_reported(self, tmp_path):
        self.check(tmp_path, SQUARE_LINES, "{path}:5: bad value 'a' in node line",
                   {5: "1 0 1 a", 6: "1 1 b 1"})

    @pytest.mark.parametrize("line, got", [("0 1 1", 3), ("0 1 1 1 1", 5)])
    def test_node_field_count(self, tmp_path, line, got):
        self.check(tmp_path, SQUARE_LINES,
                   f"{{path}}:7: expected node line (4 fields), got {got}", {7: line})

    @pytest.mark.parametrize("line, got", [("0 2", 2), ("0 2 3 1", 4)])
    def test_element_field_count(self, tmp_path, line, got):
        self.check(tmp_path, SQUARE_LINES,
                   f"{{path}}:10: expected element line (3 fields), got {got}", {10: line})

    @pytest.mark.parametrize("line, token", [("0 2 x", "x"), ("0 2.0 3", "2.0")])
    def test_bad_element_token(self, tmp_path, line, token):
        self.check(tmp_path, SQUARE_LINES,
                   f"{{path}}:10: bad value {token!r} in element line", {10: line})

    def test_data_line_count(self, tmp_path):
        self.check(tmp_path, SQUARE_LINES + ["1 2 3"],
                   "{path}: expected 7 data lines, found 8")
        self.check(tmp_path, SQUARE_LINES[:-1], "{path}: expected 7 data lines, found 6")

    @pytest.mark.parametrize("line", ["0 2 4", "0 -1 3"])
    def test_index_out_of_range(self, tmp_path, line):
        self.check(tmp_path, SQUARE_LINES, "triangle vertex index out of range", {10: line})

    def test_non_finite_node_data(self, tmp_path):
        self.check(tmp_path, SQUARE_LINES, "non-finite node data", {5: "1 0 nan 1"})

    def test_tag_outside_set(self, tmp_path):
        self.check(tmp_path, SQUARE_LINES, "node tag outside {{0, 1, 2}}", {5: "1 0 1 3"})

    def test_repeated_vertex_reports_first_triangle(self, tmp_path):
        lines = SQUARE_LINES[:2] + ["4 4"] + SQUARE_LINES[3:] + ["1 1 2", "3 0 3"]
        self.check(tmp_path, lines, "triangle 2 repeats a vertex index")

    def test_degenerate_element_reports_first_triangle(self, tmp_path):
        # node 4 sits on the diagonal 0-2, node 5 on the edge 1-2
        lines = (SQUARE_LINES[:2] + ["6 4"] + SQUARE_LINES[3:7]
                 + ["0.5 0.5 1 1", "1 0.5 1 1", "# elements", "0 1 2", "0 4 2", "1 2 5", "0 2 3"])
        self.check(tmp_path, lines, "triangle 1: degenerate triangle, area 0 m^2")

    def test_interior_tagged_boundary_nodes_sorted(self, tmp_path):
        coords, tris, depth, tags = rect_mesh_arrays(3, 3, 1.0, 1.0)
        tags[[7, 2, 0]] = INTERIOR
        path = tmp_path / "mesh.txt"
        path.write_text(mesh_text(coords, tris, depth, tags))
        with pytest.raises(MeshError) as excinfo:
            load_mesh(path)
        assert str(excinfo.value) == "boundary nodes tagged interior: [0, 2, 7]"

    def test_line_numbers_with_crlf_and_indent(self, tmp_path):
        path = tmp_path / "mesh.txt"
        text = "\r\n".join(["  " + line for line in SQUARE_LINES]) + "\r\n"
        path.write_bytes(text.replace("  1 1 1 1", "  1 1 1 2.5").encode())
        with pytest.raises(MeshError) as excinfo:
            load_mesh(path)
        assert str(excinfo.value) == f"{path}:6: bad value '2.5' in node line"


# Each table input with a comment and a blank line before its last row,
# so that row is file line 5; `{bad}` stands for its last field.
TABLES = {
    "tide": (load_tide, "tide line", ["# tide", "0 0.0", "", "3600 1.0", "7200 {bad}"]),
    "wind": (load_wind, "wind line", ["0 1.0 2.0", "# wind", "100 3.0 2.0", "",
                                      "200 1.0 {bad}"]),
    "snapshot": (lambda path: load_snapshot(path, rect_mesh(2, 2, 1.0, 1.0)), "snapshot row",
                 ["node,x1,x2,eta,u1,u2", "0,0.0,0.0,0.0,0.0,0.0", "# restart", "",
                  "1,1.0,0.0,0.0,0.0,{bad}"]),
}


class TestOneTableReader:
    """Tide, wind and snapshot files parse as the mesh does, and their
    errors name the file line and field the same way."""

    def check(self, tmp_path, table, bad, expected):
        load, what, lines = TABLES[table]
        path = tmp_path / f"{table}.txt"
        path.write_text("\n".join(lines).replace("{bad}", bad) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load(path)
        assert str(excinfo.value) == expected.format(path=path, what=what)
        if table != "snapshot":
            assert isinstance(excinfo.value, ForcingError)

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("bad", ["x", "1_000", "0x10", "1.0.0"])
    def test_bad_token(self, tmp_path, table, bad):
        self.check(tmp_path, table, bad, f"{{path}}:5: bad value {bad!r} in {{what}}")

    @pytest.mark.parametrize("table", TABLES)
    def test_field_count(self, tmp_path, table):
        sep = "," if table == "snapshot" else " "
        n = {"tide": 2, "wind": 3, "snapshot": 6}[table]
        self.check(tmp_path, table, f"0.0{sep}0.0",
                   f"{{path}}:5: expected {{what}} ({n} fields), got {n + 1}")

    def test_empty_snapshot_field(self, tmp_path):
        self.check(tmp_path, "snapshot", "", "{path}:5: bad value '' in {what}")


# The data-line pattern the table reader once matched against the whole
# file text; it stays here as the oracle for the line-by-line rule.
OLD_DATA_LINE = re.compile(r"^[^\S\n]*[^\s#].*", re.MULTILINE)

# Config lines that are also odd table lines: indented comments, blank
# lines of tabs and form feeds, and a `#` after data, which is data.
COMMENT_RULE_LINES = ["# a run", "  # tau=6", "\t# tau=7", "\t\f\t", "\f", "", "#",
                      "  tau = 5  ", "out_dir=run#1", "\teta0=0.25", " \f# eta0=9", " # ",
                      "duration=600"]


class TestCommentRule:
    """One rule, :func:`is_data_line`, picks the data lines of every input."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("last_newline", [True, False], ids=["ended", "unended"])
    def test_data_lines_match_old_pattern(self, tmp_path, newline, last_newline):
        text = newline.join(COMMENT_RULE_LINES) + (newline if last_newline else "")
        path = tmp_path / "lines.txt"
        path.write_bytes(text.encode())
        got = [line.rstrip("\n") for line in data_lines(path)]
        assert got == OLD_DATA_LINE.findall(path.read_text())
        assert got == ["  tau = 5  ", "out_dir=run#1", "\teta0=0.25", "duration=600"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_config_skips_the_same_lines(self, newline):
        # a comment read as data would be an unknown key `# tau`
        cfg = parse_config_text(newline.join(COMMENT_RULE_LINES), base_dir="/base")
        assert cfg.run_config.tau == 5.0
        assert cfg.run_config.duration == 600.0
        assert cfg.eta0 == 0.25
        assert cfg.out_dir == os.path.normpath("/base/run#1")


class TestBuildMeshErrors:
    @pytest.mark.parametrize("coords, tris, depth, tags, message", [
        (UNIT_TRI[:, :1], [[0, 1, 2]], [1.0] * 3, [LAND] * 3, "coords must be (n_nodes, 2)"),
        (UNIT_TRI, [[0, 1, 2]], [1.0] * 2, [LAND] * 3,
         "depth/tags length does not match node count"),
        (UNIT_TRI, [[0, 1, 2]], [1.0] * 3, [LAND] * 4,
         "depth/tags length does not match node count"),
        (UNIT_TRI, [0, 1, 2], [1.0] * 3, [LAND] * 3, "triangles must be (n_tris, 3)"),
        (UNIT_TRI, [[0, 1, 2, 0]], [1.0] * 3, [LAND] * 3, "triangles must be (n_tris, 3)"),
    ], ids=["coords", "depth", "tags", "flat-triangles", "quad"])
    def test_array_shapes(self, coords, tris, depth, tags, message):
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, tris, depth, tags)
        assert str(excinfo.value) == message

    def test_repeated_vertex_reports_first_triangle(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, [[0, 1, 2], [0, 2, 3], [3, 3, 1], [2, 2, 2]],
                       [1.0] * 4, [LAND] * 4)
        assert str(excinfo.value) == "triangle 2 repeats a vertex index"

    def test_degenerate_reports_first_triangle_and_area(self):
        coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 1e-12], [2.0, 0.0]]
        # triangle 2 has area 5e-13 (below the floor), triangle 3 area 0
        tris = [[0, 1, 2], [0, 2, 3], [0, 1, 4], [1, 5, 0]]
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, tris, [1.0] * 6, [LAND] * 6)
        assert str(excinfo.value) == "triangle 2: degenerate triangle, area 5e-13 m^2"

    def test_degenerate_message_same_either_orientation(self):
        # the area floor is checked after reorientation, which only flips the sign
        coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 1e-12]]
        for sliver in ([0, 1, 4], [0, 4, 1]):
            with pytest.raises(MeshError) as excinfo:
                build_mesh(coords, [[0, 1, 2], [0, 2, 3], sliver], [1.0] * 5, [LAND] * 5)
            assert str(excinfo.value) == "triangle 2: degenerate triangle, area 5e-13 m^2"

    def test_unused_node_named(self):
        # node 3 lies outside the one triangle: its lumped mass would be 0
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, [[0, 1, 2]], [1.0] * 4, [LAND, LAND, LAND, INTERIOR])
        assert str(excinfo.value) == "node 3 belongs to no triangle"

    def test_first_unused_node_named(self):
        coords = [[9.0, 9.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, [[1, 2, 3]], [1.0] * 5, [INTERIOR] + [LAND] * 4)
        assert str(excinfo.value) == "node 0 belongs to no triangle"

    def test_empty_triangulation(self):
        with pytest.raises(MeshError) as excinfo:
            build_mesh(UNIT_TRI, np.empty((0, 3), dtype=int), [1.0] * 3, [LAND] * 3)
        assert str(excinfo.value) == "empty triangulation: no triangles"

    NOT_MANIFOLD = "is not manifold (used by more than two triangles, or twice in the same direction)"

    def test_edge_shared_by_three_triangles(self):
        # edge 0-1 bounds triangles 0 and 1, and triangle 2 overlaps
        # triangle 0 across it (the parent built this with total area 1.25)
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [0.5, 0.5]]
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, [[0, 1, 2], [1, 0, 3], [0, 1, 4]], [1.0] * 5, [LAND] * 5)
        assert str(excinfo.value) == f"triangle 2: edge 0-1 {self.NOT_MANIFOLD}"

    def test_folded_edge_same_direction(self):
        # node 3 lies on node 2's side of edge 0-1: once reoriented,
        # triangle 1 runs 0 -> 1 like triangle 0 and folds over it
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, [[0, 1, 2], [1, 0, 3]], [1.0] * 4, [LAND] * 4)
        assert str(excinfo.value) == f"triangle 1: edge 0-1 {self.NOT_MANIFOLD}"

    def test_first_offending_triangle_named(self):
        # two folds; the lower-numbered repeating triangle is reported
        coords = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5],
                  [5.0, 0.0], [6.0, 0.0], [5.0, 1.0], [5.5, 0.5]]
        tris = [[4, 5, 6], [0, 1, 2], [4, 5, 7], [0, 1, 3]]
        with pytest.raises(MeshError) as excinfo:
            build_mesh(coords, tris, [1.0] * 8, [LAND] * 8)
        assert str(excinfo.value) == f"triangle 2: edge 4-5 {self.NOT_MANIFOLD}"



def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def jittered_arrays(nx, ny, rng, open_west=False):
    """Jittered rectangle with random depths, some below h_min."""
    coords, tris, _, tags = rect_mesh_arrays(nx, ny, 3.0, 2.0)
    h = 2.0 / (max(nx, ny) - 1)
    interior = tags == INTERIOR
    coords[interior] += rng.uniform(-0.3 * h, 0.3 * h, size=(interior.sum(), 2))
    if open_west:
        tags[(coords[:, 0] == 0.0) & (tags == LAND)] = OPEN
    depth = rng.uniform(-0.5, 8.0, size=len(coords))
    return coords, tris, depth, tags


def holed_arrays(rng):
    """Rectangle with a square hole; both boundaries tagged land."""
    coords, tris, depth, tags = jittered_arrays(11, 11, rng)
    centroid = coords[tris].mean(axis=1)
    keep = ~np.all(np.abs(centroid - (1.5, 1.0)) < 0.45, axis=1)
    tris = tris[keep]
    used = np.unique(tris)
    remap = np.full(len(coords), -1)
    remap[used] = np.arange(len(used))
    coords, depth, tags, tris = coords[used], depth[used], tags[used], remap[tris]
    edges = loop_mesh_geometry(coords, tris, np.full(len(coords), LAND))["boundary_edges"]
    tags[np.unique(edges)] = LAND
    return coords, tris, depth, tags


class TestMeshOracle:
    """load_mesh/build_mesh against the token parser and the loop oracle."""

    def check_file(self, path, h_min=0.05):
        mesh = load_mesh(path, h_min=h_min)
        coords, depth, tags, triangles = token_parse(path)
        assert bitwise_equal(mesh.coords, coords)
        assert bitwise_equal(mesh.depth, np.maximum(depth, h_min))
        assert bitwise_equal(mesh.tags, tags)
        oracle = loop_mesh_geometry(coords, triangles, tags)
        areas, grads = element_geometry(mesh)
        for name, got in (("triangles", mesh.triangles), ("areas", areas), ("grads", grads)):
            assert bitwise_equal(got, oracle[name]), name
        land = oracle["boundary"] & (tags == LAND)
        walls = np.flatnonzero(land & ~oracle["corner"])
        assert bitwise_equal(mesh.wall_nodes, walls)
        assert bitwise_equal(mesh.wall_normals, oracle["normals"][walls])
        assert bitwise_equal(mesh.corner_nodes, np.flatnonzero(land & oracle["corner"]))
        assert bitwise_equal(mesh.open_nodes, np.flatnonzero(tags == OPEN))
        a, b = _boundary_edges(mesh.triangles, mesh.n_nodes)
        assert sorted(zip(a.tolist(), b.tolist())) == oracle["boundary_edges"]
        return mesh

    def write(self, tmp_path, arrays):
        path = tmp_path / "mesh.txt"
        path.write_text(mesh_text(*arrays))
        return path

    @pytest.mark.parametrize("seed, shape, open_west", [
        (0, (5, 7), False), (1, (9, 9), True), (2, (13, 6), False), (3, (17, 17), True),
    ])
    def test_jittered(self, tmp_path, seed, shape, open_west):
        arrays = jittered_arrays(*shape, np.random.default_rng(seed), open_west)
        mesh = self.check_file(self.write(tmp_path, arrays))
        # an open west side takes two of the four corners off the land
        assert mesh.corner_nodes.size == (2 if open_west else 4)

    def test_mixed_orientation(self, tmp_path, caplog):
        rng = np.random.default_rng(7)
        coords, tris, depth, tags = jittered_arrays(10, 8, rng, open_west=True)
        flip = rng.random(len(tris)) < 0.5
        tris[flip] = tris[flip][:, [0, 2, 1]]
        with caplog.at_level(logging.WARNING, logger="swsplit.mesh"):
            self.check_file(self.write(tmp_path, (coords, tris, depth, tags)))
        assert f"reorienting {flip.sum()} clockwise triangles" in caplog.text

    def test_hole(self, tmp_path):
        mesh = self.check_file(self.write(tmp_path, holed_arrays(np.random.default_rng(5))))
        # outer walls plus the hole
        assert mesh.wall_nodes.size + mesh.corner_nodes.size > 4 * (11 - 1)

    def test_pinched_node(self, tmp_path):
        # two squares touching at node 2: four boundary edges meet there
        coords = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 1], [2, 2], [1, 2]]
        tris = [[0, 1, 2], [0, 2, 3], [2, 4, 5], [2, 5, 6]]
        mesh = self.check_file(self.write(tmp_path, (coords, tris, [1.0] * 7, [LAND] * 7)))
        assert 2 in mesh.corner_nodes

    def test_demo_channel(self):
        mesh = self.check_file(DEMO_MESH)
        assert mesh.n_nodes == 63 and mesh.n_triangles == 96

    def test_number_formats(self, tmp_path):
        """Parsed numbers equal float()/int() of each token, bit for bit."""
        rng = np.random.default_rng(11)
        coords, tris, _, tags = jittered_arrays(9, 7, rng, open_west=True)
        depth = 10.0 ** rng.uniform(-320, 308, size=len(coords))
        coords = coords * 10.0 ** rng.integers(-3, 4)
        forms = ("{!r}", "{:.17e}", "{:.6g}", "{:E}", "+{!r}", "  {!r}\t")
        lines = [f"{len(coords)} {len(tris)}"]
        for (x, y), h, tag in zip(coords, depth, tags):
            fx, fy, fh = (forms[i] for i in rng.integers(0, len(forms), size=3))
            tag = ("+{}", "{}", "0{}")[rng.integers(0, 3)].format(tag)
            lines.append(" ".join([fx.format(float(x)), fy.format(float(y)),
                                   fh.format(float(h)), tag]))
        lines += ["\t".join(f"{v:+d}" if v % 2 else f"{v:03d}" for v in tri) for tri in tris]
        path = tmp_path / "mesh.txt"
        path.write_text("\n".join(lines) + "\n")
        self.check_file(path, h_min=5e-324)


def test_interpolation_exactness_random_mesh(rng):
    # a globally linear field is reproduced element by element
    from helpers import jittered_mesh
    mesh = jittered_mesh(5, 5, rng)
    a, b, c = 0.7, -1.3, 0.25
    nodal = a * mesh.coords[:, 0] + b * mesh.coords[:, 1] + c
    grads = element_geometry(mesh)[1]
    for t, tri in enumerate(mesh.triangles):
        grad = grads[t].T @ nodal[tri]
        assert np.allclose(grad, (a, b), rtol=0, atol=1e-12)
        mid = mesh.coords[tri].mean(axis=0)
        interp = (eval_basis(mesh.coords[tri], mid[None, :]) @ nodal[tri]).item()
        assert interp == pytest.approx(a * mid[0] + b * mid[1] + c, abs=1e-12)
