import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralmeta.cli import main
from chiralmeta.mesh import MeshError, TriMesh, icosphere, mesh_from_file, signed_volume
from _meshes import small_torus

# unit cube scaled by `side`, 12 outward-oriented triangles
_CUBE_VERTS = np.array([
    [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
    [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
], dtype=float)
_CUBE_TRIS = np.array([
    [0, 2, 1], [0, 3, 2],          # bottom
    [4, 5, 6], [4, 6, 7],          # top
    [0, 1, 5], [0, 5, 4],          # front
    [3, 7, 6], [3, 6, 2],          # back
    [0, 4, 7], [0, 7, 3],          # left
    [1, 2, 6], [1, 6, 5],          # right
])


def cube_off_text(side=2.0, flip=False, drop_last_face=False, truncate=False):
    verts = _CUBE_VERTS * (side / 2.0)
    tris = _CUBE_TRIS[:, ::-1] if flip else _CUBE_TRIS
    if drop_last_face:
        tris = tris[:-1]
    lines = ["OFF", f"{len(verts)} {len(tris)} 0"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in verts]
    lines += ["3 " + " ".join(str(i) for i in row) for row in tris]
    text = "\n".join(lines) + "\n"
    if truncate:
        text = text[: text.rfind("3 ")]
    return text


def test_icosahedron_counts():
    mesh = icosphere(0)
    assert mesh.n_panels == 20
    assert len(mesh.vertices) == 12


def test_icosphere_panel_count_law():
    for sub in range(4):
        assert icosphere(sub).n_panels == 20 * 4 ** sub


def test_icosphere_area_subdiv3(ico3):
    assert abs(ico3.areas.sum() - 4 * np.pi) / (4 * np.pi) < 0.005


def test_icosphere_volume_from_below():
    vols = [signed_volume(icosphere(s)) for s in range(4)]
    exact = 4 * np.pi / 3
    assert all(v < exact for v in vols)
    assert all(b > a for a, b in zip(vols, vols[1:]))  # converges upward


def test_icosphere_vertices_on_unit_sphere(ico3):
    radii = np.linalg.norm(ico3.vertices, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-14


def test_refinement_monotonicity():
    exact_area, exact_vol = 4 * np.pi, 4 * np.pi / 3
    area_errs, vol_errs = [], []
    for sub in range(4):
        mesh = icosphere(sub)
        area_errs.append(abs(mesh.areas.sum() - exact_area))
        vol_errs.append(abs(signed_volume(mesh) - exact_vol))
    assert all(b < a for a, b in zip(area_errs, area_errs[1:]))
    assert all(b < a for a, b in zip(vol_errs, vol_errs[1:]))


def test_euler_characteristic():
    for mesh in (icosphere(0), icosphere(2), TriMesh(_CUBE_VERTS, _CUBE_TRIS)):
        n_edges = 3 * mesh.n_panels // 2
        assert len(mesh.vertices) - n_edges + mesh.n_panels == 2


def test_subdivision_guard():
    with pytest.raises(MeshError):
        icosphere(7)


def test_signed_volume_icosphere(ico3):
    assert abs(signed_volume(ico3) - 4 * np.pi / 3) / (4 * np.pi / 3) < 0.01


def test_cube_volume_side1():
    mesh = TriMesh(_CUBE_VERTS * 0.5, _CUBE_TRIS)
    assert signed_volume(mesh) == pytest.approx(1.0, abs=1e-14)


def test_volume_scaling_law():
    base = TriMesh(_CUBE_VERTS, _CUBE_TRIS)
    scaled = TriMesh(_CUBE_VERTS * 2.0, _CUBE_TRIS)
    assert signed_volume(scaled) == pytest.approx(8.0 * signed_volume(base), rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
def test_volume_scaling_law_any_factor(s):
    mesh = TriMesh(_CUBE_VERTS * s, _CUBE_TRIS)
    assert signed_volume(mesh) == pytest.approx((2.0 * s) ** 3, rel=1e-12)


def test_off_cube(tmp_path):
    path = tmp_path / "cube.off"
    path.write_text(cube_off_text(side=2.0))
    mesh = mesh_from_file(str(path))
    assert mesh.n_panels == 12
    assert signed_volume(mesh) == pytest.approx(8.0, abs=1e-12)


def test_off_inward_faces_flipped(tmp_path):
    path = tmp_path / "cube_in.off"
    path.write_text(cube_off_text(flip=True))
    mesh = mesh_from_file(str(path))
    assert signed_volume(mesh) > 0


@pytest.mark.parametrize("mesh", [icosphere(3), small_torus()], ids=["icosphere3", "torus"])
def test_off_round_trip_bit_exact(tmp_path, mesh):
    # the reader converts whole blocks, which must parse each token as float() does
    lines = ["OFF", f"{len(mesh.vertices)} {mesh.n_panels} 0"]
    lines += [" ".join(map(repr, row)) for row in mesh.vertices.tolist()]
    lines += ["3 " + " ".join(map(str, row)) for row in mesh.triangles.tolist()]
    path = tmp_path / "mesh.off"
    path.write_text("\n".join(lines) + "\n")
    back = mesh_from_file(str(path))
    assert back.vertices.tobytes() == mesh.vertices.tobytes()
    assert back.triangles.tobytes() == mesh.triangles.tobytes()


def test_off_truncated_names_line(tmp_path):
    path = tmp_path / "trunc.off"
    path.write_text(cube_off_text(truncate=True))
    with pytest.raises(MeshError, match=r"line \d+"):
        mesh_from_file(str(path))


def test_off_open_mesh_rejected(tmp_path):
    path = tmp_path / "open.off"
    path.write_text(cube_off_text(drop_last_face=True))
    with pytest.raises(MeshError):
        mesh_from_file(str(path))


def test_degenerate_panel_rejected():
    tris = _CUBE_TRIS.copy()
    tris[0] = [0, 0, 1]  # repeated vertex, zero area
    with pytest.raises(MeshError, match="degenerate"):
        TriMesh(_CUBE_VERTS, tris)


@pytest.mark.parametrize("command", ["np-spectrum", "resonances"])
@pytest.mark.parametrize("row, text, message", [
    *(pytest.param(2 + 6, f"{v} 1 1", "vertex 6 has a non-finite coordinate",
                   id=f"{v}-vertex 6 has a non-finite coordinate") for v in ("nan", "inf", "-inf")),
    pytest.param(2 + 6, "1e300 1 1", "non-finite area or normal",
                 id="1e300-non-finite area or normal"),
    pytest.param(1, "8 -12 0", "line 2: negative element counts", id="negative count"),
    pytest.param(2 + 8 + 11, "3 1 6 8", "line 22: face index out of range",
                 id="face index past the vertices")])
def test_non_finite_geometry_refused(tmp_path, capsys, command, row, text, message):
    # a non-finite coordinate, one whose panel areas overflow, a negative
    # element count or a face index past the vertices is a mesh error: exit
    # 2 and no artifact, not a numpy or eigensolver traceback
    lines = cube_off_text().splitlines()
    lines[row] = text
    path = tmp_path / "bad.off"
    path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"mesh_source = {path}\nmode_count = 4\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot read mesh" in err and message in err
    assert list(out.iterdir()) == []
    with pytest.raises(MeshError, match=message):
        mesh_from_file(str(path))


def test_inward_mesh_rejected_without_fix():
    with pytest.raises(MeshError, match="oriented"):
        TriMesh(_CUBE_VERTS, _CUBE_TRIS[:, ::-1])


def test_single_reversed_panel_rejected():
    # the undirected edge counts and the signed volume both pass; only the
    # directed edges show the inward panel
    mesh = icosphere(2)
    tris = mesh.triangles.copy()
    tris[5] = tris[5][::-1]
    with pytest.raises(MeshError, match=r"not consistently oriented: 3 edge\(s\)") as err:
        TriMesh(mesh.vertices, tris)
    named = {int(k) for k in re.findall(r"\d+", str(err.value).split("e.g.")[1])}
    assert named <= set(tris[5].tolist())


def test_open_mesh_message():
    with pytest.raises(MeshError, match=r"not watertight: 3 edge\(s\) .* e\.g\. \(\d+, \d+\)$"):
        TriMesh(_CUBE_VERTS, _CUBE_TRIS[:-1])
