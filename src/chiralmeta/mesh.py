"""Closed triangulated surfaces with per-panel data for boundary-integral work."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Raised when a mesh fails the closed-surface requirements."""


@dataclass(frozen=True)
class TriMesh:
    """Watertight, outward-oriented triangulated surface.

    Parameters
    ----------
    vertices : (V, 3) float array
    triangles : (F, 3) int array
        Vertex indices, counter-clockwise seen from outside.

    Per-panel centroids, unit normals and areas are derived on
    construction.  Construction validates finite vertex coordinates,
    closedness and consistent orientation (every edge shared by exactly two
    triangles that traverse it in opposite directions), strictly positive
    and finite panel areas, finite normals and a positive enclosed volume.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    centroids: np.ndarray = field(init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        tris = np.asarray(self.triangles, dtype=int)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {verts.shape}")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError(f"triangles must be (F, 3), got {tris.shape}")
        if tris.min(initial=0) < 0 or tris.max(initial=-1) >= len(verts):
            raise MeshError("triangle indices out of range")
        bad = np.nonzero(~np.isfinite(verts).all(axis=1))[0]
        if len(bad):
            raise MeshError(f"vertex {bad[0]} has a non-finite coordinate")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

        a = verts[tris[:, 0]]
        b = verts[tris[:, 1]]
        c = verts[tris[:, 2]]
        with np.errstate(all="ignore"):   # zero and non-finite areas are refused below
            cross = np.cross(b - a, c - a)
            double_area = np.linalg.norm(cross, axis=1)
            normals = cross / double_area[:, None]
        if np.any(double_area <= 1e-14):
            bad = int(np.argmin(double_area))
            raise MeshError(f"degenerate panel {bad} (zero area)")
        bad = np.nonzero(~(np.isfinite(double_area) & np.isfinite(normals).all(axis=1)))[0]
        if len(bad):
            raise MeshError(f"panel {bad[0]} has a non-finite area or normal")
        object.__setattr__(self, "centroids", (a + b + c) / 3.0)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "areas", 0.5 * double_area)

        self._check_closed()
        if signed_volume(self) <= 0.0:
            raise MeshError("mesh is not outward oriented (signed volume <= 0)")

    def _check_closed(self) -> None:
        """Every edge is shared by exactly two triangles, which traverse it in
        opposite directions (a closed, consistently oriented surface)."""
        n = len(self.vertices)
        i = self.triangles.ravel()
        j = self.triangles[:, [1, 2, 0]].ravel()   # directed edges (i, j), (j, k), (k, i)
        edges, slot, counts = np.unique(np.minimum(i, j) * n + np.maximum(i, j),
                                        return_inverse=True, return_counts=True)
        bad = edges[counts != 2]
        if len(bad):
            raise MeshError(
                f"mesh is not watertight: {len(bad)} edge(s) not shared by "
                f"exactly two triangles, e.g. {divmod(int(bad[0]), n)}"
            )
        # +1 for each traversal from the lower to the higher vertex index, -1
        # back: a pair of opposite traversals sums to zero
        flow = np.bincount(slot, weights=np.where(i < j, 1.0, -1.0), minlength=len(edges))
        bad = edges[flow != 0]
        if len(bad):
            raise MeshError(
                f"mesh is not consistently oriented: {len(bad)} edge(s) traversed "
                f"in the same direction by both triangles, e.g. {divmod(int(bad[0]), n)}"
            )

    @property
    def n_panels(self) -> int:
        return len(self.triangles)


def signed_volume(mesh: TriMesh) -> float:
    """Enclosed volume via the divergence theorem.

    Exact for flat panels: each contributes (centroid . n) * area / 3.
    """
    return float(np.sum(np.einsum("ij,ij->i", mesh.centroids, mesh.normals) * mesh.areas) / 3.0)


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    tris = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=int,
    )
    return verts, tris


def icosphere(subdivisions: int = 3) -> TriMesh:
    """Unit-sphere mesh from recursive icosahedron subdivision.

    Each level splits every triangle in four and reprojects the new
    midpoints to the unit sphere; ``subdivisions`` levels give
    20 * 4**subdivisions panels.
    """
    if not 0 <= subdivisions <= 6:
        raise MeshError("subdivisions must be between 0 and 6")
    verts, tris = _icosahedron()
    verts = list(verts)
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(subdivisions):
        new_tris = []
        for i, j, k in tris:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_tris += [[i, ij, ki], [j, jk, ij], [k, ki, jk], [ij, jk, ki]]
        tris = np.array(new_tris, dtype=int)
    return TriMesh(np.array(verts), tris)


def _off_block(tokens, lines, start, n_rows, row_name, column_names, dtype) -> np.ndarray:
    """``n_rows`` rows of ``len(column_names)`` tokens from ``tokens[start]``
    on, converted as one array; a missing or unparsable token is reported
    with its line number."""
    n_cols = len(column_names)
    stop = start + n_rows * n_cols
    if stop > len(tokens):
        raise MeshError(f"truncated OFF file while reading {row_name} "
                        f"{(len(tokens) - start) // n_cols} (after line {lines[-1]})")
    block = tokens[start:stop]
    try:
        return np.array(block, dtype=dtype).reshape(n_rows, n_cols)
    except (ValueError, OverflowError):
        for i, tok in enumerate(block):   # name the first token the array refused
            try:
                np.array(tok, dtype=dtype)
            except (ValueError, OverflowError):
                raise MeshError(
                    f"line {lines[start + i]}: bad {column_names[i % n_cols]}") from None
        raise


def mesh_from_file(path: str) -> TriMesh:
    """Read a triangle mesh in OFF format.

    Orientation is normalized: if the parsed mesh encloses a negative
    volume, all triangles are flipped before validation.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.split("#", 1)[0].split() for line in fh]
    except UnicodeDecodeError as exc:
        raise MeshError(f"not UTF-8 text: {exc}") from exc
    tokens = [tok for row in rows for tok in row]
    lines = [lineno for lineno, row in enumerate(rows, start=1) for _ in row]

    if not tokens:
        raise MeshError("truncated OFF file while reading header (after line 1)")
    if tokens[0] != "OFF":
        raise MeshError(f"line {lines[0]}: expected OFF header, got {tokens[0]!r}")
    if len(tokens) < 4:
        raise MeshError(f"truncated OFF file while reading element counts (after line {lines[-1]})")
    try:
        n_verts, n_faces = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise MeshError(f"line {lines[1]}: bad element counts") from exc
    if n_verts < 0 or n_faces < 0:
        raise MeshError(f"line {lines[1]}: negative element counts")

    verts = _off_block(tokens, lines, 4, n_verts, "vertex", ["vertex coordinate"] * 3, float)
    first = 4 + 3 * n_verts
    faces = _off_block(tokens, lines, first, n_faces, "face",
                       ["face vertex count"] + ["face index"] * 3, int)
    bad = np.flatnonzero(faces[:, 0] != 3)
    if len(bad):
        raise MeshError(f"line {lines[first + 4 * bad[0]]}: only triangles supported, "
                        f"face has {faces[bad[0], 0]} vertices")
    tris = faces[:, 1:]
    bad = np.flatnonzero(((tris < 0) | (tris >= n_verts)).any(axis=1))
    if len(bad):
        raise MeshError(f"line {lines[first + 4 * bad[0] + 1]}: face index out of range")

    # Probe orientation on the checked indices; flip if the volume is negative.
    a, b, c = verts[tris.T]
    if np.sum(np.einsum("ij,ij->i", a, np.cross(b, c))) < 0:
        tris = tris[:, ::-1]
    return TriMesh(verts, tris)
