"""Seeded input generator for the benchmark workloads.

Each workload function writes the files `swsplit run` reads (mesh, restart
snapshot, config) into a case directory and returns a :class:`Case`.
The same seed always yields byte-identical files.  The generator is
self-contained on purpose: it shares no code with the test suite, so
moving the test helpers cannot change the benchmark inputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

INTERIOR, LAND, OPEN = 0, 1, 2
JITTER = 0.2          # interior node perturbation, share of the grid spacing


@dataclass(frozen=True)
class Case:
    """Generated inputs of one workload run."""

    argv_tail: tuple      # config arguments after `run`, before --set out_dir
    n_steps: int          # planned outer steps
    tau_tilde: float      # outer step, s
    closed: bool          # land-walled basin: mass must be conserved
    seeded: bool = True   # False: the inputs are the same for every seed


def grid(nx, ny, lx, ly, rng):
    """Jittered structured rectangle: coords (n, 2), CCW triangles, tags.

    Quads are split along alternating diagonals so the triangulation has
    no preferred direction.  Boundary nodes are tagged land.
    """
    xs = np.linspace(0.0, lx, nx)
    ys = np.linspace(0.0, ly, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    i, j = i.ravel(), j.ravel()
    a = i * ny + j
    b = a + ny            # (i+1, j)
    c = b + 1             # (i+1, j+1)
    d = a + 1             # (i, j+1)
    flip = (i + j) % 2 == 1
    t1 = np.where(flip[:, None], np.column_stack([a, b, d]), np.column_stack([a, b, c]))
    t2 = np.where(flip[:, None], np.column_stack([b, c, d]), np.column_stack([a, c, d]))
    tris = np.empty((2 * a.size, 3), dtype=int)
    tris[0::2] = t1
    tris[1::2] = t2

    on_edge = (X.ravel() == 0.0) | (X.ravel() == lx) | (Y.ravel() == 0.0) | (Y.ravel() == ly)
    tags = np.where(on_edge, LAND, INTERIOR)
    h = min(lx / (nx - 1), ly / (ny - 1))
    interior = ~on_edge
    coords[interior] += rng.uniform(-JITTER * h, JITTER * h, size=(int(interior.sum()), 2))
    return coords, tris, tags


def smooth_field(coords, lx, ly, rng, modes=4):
    """Sum of a few random low cosine modes, values in about [-1, 1]."""
    out = np.zeros(len(coords))
    for _ in range(modes):
        kx, ky = rng.integers(1, 4, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        out += np.cos(kx * np.pi * coords[:, 0] / lx + phase[0]) \
            * np.cos(ky * np.pi * coords[:, 1] / ly + phase[1])
    return out / modes


def write_mesh(path, coords, tris, depth, tags, comment):
    lines = [f"# {comment}", f"{len(coords)} {len(tris)}"]
    lines += [f"{float(x)!r} {float(y)!r} {float(h)!r} {int(t)}"
              for (x, y), h, t in zip(coords, depth, tags)]
    lines += [f"{i} {j} {k}" for i, j, k in tris]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshot(path, coords, eta, u1, u2):
    """Snapshot CSV in the format `load_snapshot` reads (repr floats)."""
    with open(path, "w") as fh:
        fh.write("node,x1,x2,eta,u1,u2\n")
        for i, ((x, y), e, a, b) in enumerate(zip(coords, eta, u1, u2)):
            fh.write(f"{i},{float(x)!r},{float(y)!r},{float(e)!r},{float(a)!r},{float(b)!r}\n")


def write_config(path, pairs):
    with open(path, "w") as fh:
        fh.write("".join(f"{key}={value}\n" for key, value in pairs))


def nearest_node(coords, x, y):
    return int(np.argmin((coords[:, 0] - x) ** 2 + (coords[:, 1] - y) ** 2))


def channel_tide(case_dir, seed, demo_dir):
    """About 10k nodes, 40 km x 10 km at 200 m; open west mouth; 0.5-6 m deep."""
    rng = np.random.default_rng([seed, 1])
    lx, ly = 40_000.0, 10_000.0
    coords, tris, tags = grid(201, 51, lx, ly, rng)
    tags[coords[:, 0] == 0.0] = OPEN
    # deep at the mouth, shoaling to the head, deepest along the centre line
    x, y = coords[:, 0] / lx, coords[:, 1] / ly
    depth = 0.5 + 5.5 * (1.0 - x) * (0.75 + 0.25 * np.cos(2.0 * np.pi * (y - 0.5)))
    depth *= 1.0 + 0.1 * smooth_field(coords, lx, ly, rng)
    depth = np.clip(depth, 0.5, 6.0)
    write_mesh(os.path.join(case_dir, "channel.mesh"), coords, tris, depth, tags,
               f"benchmark channel_tide seed {seed}")
    gauges = (nearest_node(coords, 0.25 * lx, 0.5 * ly), nearest_node(coords, 0.9 * lx, 0.5 * ly))
    write_config(os.path.join(case_dir, "run.txt"), [
        ("mesh", "channel.mesh"),
        ("tide", os.path.join(demo_dir, "tide.txt")),
        ("wind", os.path.join(demo_dir, "wind.txt")),
        ("tau", 3), ("tau_tilde", 300), ("duration", 7200),
        ("snapshot_interval", 3600),
        ("gauges", ",".join(map(str, gauges))),
    ])
    return Case(("-c", os.path.join(case_dir, "run.txt")),
                n_steps=24, tau_tilde=300.0, closed=False)


def basin_seiche(case_dir, seed, demo_dir):
    """About 20k nodes, closed 20 km square, 50 m deep with a 10 m bump;
    restarts from a seiche (0.2 m mean offset plus a 0.05 m cosine mode).

    A 0.1 m mode would trip the gate at tau = 60 s: its peak speed over
    the bump gives a drag rate near 6.5e-6 1/s, whose tau_c is 59 s."""
    rng = np.random.default_rng([seed, 2])
    lx = ly = 20_000.0
    coords, tris, tags = grid(141, 141, lx, ly, rng)
    cx, cy = rng.uniform(0.45, 0.55, size=2) * lx
    r2 = (coords[:, 0] - cx) ** 2 + (coords[:, 1] - cy) ** 2
    depth = 50.0 - 10.0 * np.exp(-r2 / (2.0 * 3000.0 ** 2))
    write_mesh(os.path.join(case_dir, "basin.mesh"), coords, tris, depth, tags,
               f"benchmark basin_seiche seed {seed}")
    angle = rng.uniform(0.0, 0.5 * np.pi)
    along = (coords[:, 0] * np.cos(angle) + coords[:, 1] * np.sin(angle)) \
        / (lx * (np.cos(angle) + np.sin(angle)))
    eta = 0.2 + 0.05 * np.cos(np.pi * along)
    zero = np.zeros(len(coords))
    write_snapshot(os.path.join(case_dir, "restart.csv"), coords, eta, zero, zero)
    gauges = (nearest_node(coords, 0.1 * lx, 0.1 * ly),
              nearest_node(coords, 0.5 * lx, 0.5 * ly),
              nearest_node(coords, 0.9 * lx, 0.9 * ly))
    write_config(os.path.join(case_dir, "run.txt"), [
        ("mesh", "basin.mesh"), ("restart", "restart.csv"),
        ("tau", 60), ("tau_tilde", 600), ("duration", 12000),
        ("snapshot_interval", 600),
        ("gauges", ",".join(map(str, gauges))),
    ])
    return Case(("-c", os.path.join(case_dir, "run.txt")),
                n_steps=20, tau_tilde=600.0, closed=True)


def demo_channel(case_dir, seed, demo_dir):
    """The shipped 63-node demo over the 24 h its forcing covers.

    The inputs are the repository's own demo files, so they do not
    depend on the seed."""
    return Case(("-c", os.path.join(demo_dir, "tidal.txt"), "--set", "duration=86400"),
                n_steps=288, tau_tilde=300.0, closed=False, seeded=False)


WORKLOADS = {"channel_tide": channel_tide, "basin_seiche": basin_seiche,
            "demo_channel": demo_channel}
