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


def mesh_from_file(path: str) -> TriMesh:
    """Read a triangle mesh in OFF format.

    Orientation is normalized: if the parsed mesh encloses a negative
    volume, all triangles are flipped before validation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()

    tokens: list[tuple[int, str]] = []  # (1-based line number, token)
    for lineno, line in enumerate(raw_lines, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            for tok in body.split():
                tokens.append((lineno, tok))

    pos = 0

    def take(n: int, what: str) -> list[tuple[int, str]]:
        nonlocal pos
        if pos + n > len(tokens):
            last = tokens[-1][0] if tokens else 1
            raise MeshError(f"truncated OFF file while reading {what} (after line {last})")
        out = tokens[pos:pos + n]
        pos += n
        return out

    (lineno, magic), = take(1, "header")
    if magic != "OFF":
        raise MeshError(f"line {lineno}: expected OFF header, got {magic!r}")
    counts = take(3, "element counts")
    try:
        n_verts, n_faces = int(counts[0][1]), int(counts[1][1])
    except ValueError as exc:
        raise MeshError(f"line {counts[0][0]}: bad element counts") from exc

    verts = np.empty((n_verts, 3), dtype=float)
    for v in range(n_verts):
        triple = take(3, f"vertex {v}")
        try:
            verts[v] = [float(t) for _, t in triple]
        except ValueError as exc:
            raise MeshError(f"line {triple[0][0]}: bad vertex coordinate") from exc

    tris = np.empty((n_faces, 3), dtype=int)
    for f in range(n_faces):
        (lineno, deg_tok), = take(1, f"face {f}")
        try:
            deg = int(deg_tok)
        except ValueError as exc:
            raise MeshError(f"line {lineno}: bad face vertex count") from exc
        if deg != 3:
            raise MeshError(f"line {lineno}: only triangles supported, face has {deg} vertices")
        triple = take(3, f"face {f}")
        try:
            tris[f] = [int(t) for _, t in triple]
        except ValueError as exc:
            raise MeshError(f"line {triple[0][0]}: bad face index") from exc

    # Probe orientation on an unvalidated copy; flip if the volume is negative.
    a = verts[tris[:, 0]]
    b = verts[tris[:, 1]]
    c = verts[tris[:, 2]]
    vol6 = np.sum(np.einsum("ij,ij->i", a, np.cross(b, c)))
    if vol6 < 0:
        tris = tris[:, ::-1]
    return TriMesh(verts, tris)
