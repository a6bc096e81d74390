"""Test meshes that the library does not generate."""

import numpy as np

from chiralmeta.mesh import TriMesh


def small_torus(n_around=16, n_tube=8, major=1.0, minor=0.4):
    """Torus about the z axis, 2 * n_around * n_tube outward panels."""
    u = 2 * np.pi * np.arange(n_around) / n_around
    v = 2 * np.pi * np.arange(n_tube) / n_tube
    U, V = np.meshgrid(u, v, indexing="ij")
    ring = major + minor * np.cos(V)
    verts = np.stack([ring * np.cos(U), ring * np.sin(U), minor * np.sin(V)], -1).reshape(-1, 3)
    i, j = np.meshgrid(np.arange(n_around), np.arange(n_tube), indexing="ij")
    a, d = i * n_tube + j, i * n_tube + (j + 1) % n_tube
    b, c = (i + 1) % n_around * n_tube + j, (i + 1) % n_around * n_tube + (j + 1) % n_tube
    tris = np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)], -2).reshape(-1, 3)
    return TriMesh(verts, tris)


def jittered_torus(seed=7, n_around=16, n_tube=8, amplitude=0.02):
    """``small_torus`` with every vertex moved by a seeded random offset of up
    to ``amplitude`` per axis: still closed and outward, with no symmetry."""
    torus = small_torus(n_around, n_tube)
    jitter = np.random.default_rng(seed).uniform(-amplitude, amplitude, torus.vertices.shape)
    return TriMesh(torus.vertices + jitter, torus.triangles)
