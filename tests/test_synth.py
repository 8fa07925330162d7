"""Synthetic data: oriented boxes, projection, noise, generation, file IO."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from graphlift.errors import (DatasetFormatError, DegenerateGeometryError,
                              DimensionError, DomainError)
from graphlift.hand import rotation_zyx
from graphlift.synth import (DEPTH_RANGE, IMAGE_MARGIN, IMAGE_SIZE, Camera, SampleRecord,
                             add_noise, generate_dataset, load_dataset, obb_from_points,
                             project, records_to_arrays, save_dataset)


def cuboid_vertices(dims, center=(0.0, 0.0, 0.0), rot=np.eye(3)):
    half = np.asarray(dims, dtype=float) / 2.0
    verts = np.zeros((8, 3))
    for i in range(8):
        signs = np.array([1.0 if i & (1 << a) else -1.0 for a in range(3)])
        verts[i] = np.asarray(center) + rot @ (signs * half)
    return verts


def box_volume(corners):
    edges = corners[[1, 2, 4]] - corners[0]
    return abs(np.linalg.det(edges))


def assert_same_point_set(a, b, tol):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    assert d.min(axis=1).max() < tol
    assert d.min(axis=0).max() < tol


# ---- oriented bounding boxes ----------------------------------------------


def test_obb_axis_aligned_cuboid_exact():
    verts = cuboid_vertices((4.0, 2.0, 1.0), center=(10.0, -3.0, 5.0))
    corners = obb_from_points(verts)
    assert_same_point_set(corners, verts, 1e-9)
    # documented bit pattern: bit a of i flips corner i to +half along axis a,
    # axes sorted by descending spread (here x, y, z)
    np.testing.assert_allclose(corners[0], [8.0, -4.0, 4.5], atol=1e-9)
    np.testing.assert_allclose(corners[1], [12.0, -4.0, 4.5], atol=1e-9)
    np.testing.assert_allclose(corners[2], [8.0, -2.0, 4.5], atol=1e-9)
    np.testing.assert_allclose(corners[7], [12.0, -2.0, 5.5], atol=1e-9)
    np.testing.assert_allclose(box_volume(corners), 8.0, atol=1e-9)


def test_obb_unit_cube():
    verts = cuboid_vertices((1.0, 1.0, 1.0))
    corners = obb_from_points(verts)
    assert_same_point_set(corners, verts, 1e-9)
    np.testing.assert_allclose(box_volume(corners), 1.0, atol=1e-9)


def test_obb_rotation_equivariant():
    rng = np.random.default_rng(0)
    verts = cuboid_vertices((80.0, 55.0, 30.0))
    base = obb_from_points(verts)
    for _ in range(5):
        rot = rotation_zyx(rng.uniform(-np.pi, np.pi, size=3))
        recovered = obb_from_points(verts @ rot.T)
        assert_same_point_set(recovered, base @ rot.T, 1e-6)
        np.testing.assert_allclose(box_volume(recovered),
                                   80.0 * 55.0 * 30.0, rtol=1e-6)


def test_obb_center_is_centroid_for_symmetric_cloud():
    verts = cuboid_vertices((40.0, 25.0, 10.0), center=(3.0, 4.0, 5.0))
    corners = obb_from_points(verts)
    np.testing.assert_allclose(corners.mean(axis=0), [3.0, 4.0, 5.0], atol=1e-9)


def test_obb_degenerate_and_invalid_inputs():
    square = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(DegenerateGeometryError):
        obb_from_points(square)
    with pytest.raises(DomainError):
        obb_from_points(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        obb_from_points(np.zeros((8, 2)))
    with pytest.raises(DomainError):
        bad = np.ones((4, 3)); bad[0, 0] = np.inf
        obb_from_points(bad)


# ---- projection ------------------------------------------------------------


def test_project_optical_axis_hits_principal_point():
    out = project(np.array([[0.0, 0.0, 412.0]]))
    np.testing.assert_allclose(out, [[320.0, 320.0]], atol=1e-12)


def test_project_matches_scalar_formula():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-200, 200, 64), rng.uniform(-200, 200, 64),
                           rng.uniform(100, 900, 64)])
    cam = Camera(fx=555.0, fy=610.0, cx=311.0, cy=330.5)
    out = project(pts, cam)
    for i in range(64):
        x, y, z = pts[i]
        np.testing.assert_allclose(out[i, 0], cam.fx * x / z + cam.cx, atol=1e-12)
        np.testing.assert_allclose(out[i, 1], cam.fy * y / z + cam.cy, atol=1e-12)


def test_project_doubling_depth_halves_offset():
    p = np.array([[60.0, -45.0, 350.0]])
    near = project(p) - [320.0, 320.0]
    far = project(p * [1.0, 1.0, 2.0]) - [320.0, 320.0]
    np.testing.assert_allclose(far, near / 2.0, atol=1e-12)


def test_project_requires_positive_depth():
    with pytest.raises(DomainError):
        project(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        project(np.array([[1.0, 1.0, -5.0]]))
    with pytest.raises(DimensionError):
        project(np.zeros((4, 2)))


# ---- noise ------------------------------------------------------------------


def test_add_noise_sigma_zero_is_identity_copy():
    pts = np.arange(58.0).reshape(29, 2)
    out = add_noise(pts, 0.0, 123)
    np.testing.assert_array_equal(out, pts)
    assert out is not pts


def test_add_noise_deterministic_and_unbiased():
    pts = np.zeros((1000, 100))
    a = add_noise(pts, 10.0, 7)
    b = add_noise(pts, 10.0, 7)
    np.testing.assert_array_equal(a, b)
    assert abs(a.std() - 10.0) < 0.2          # 1e5 draws, 2% slack
    assert abs(a.mean()) < 0.2
    assert not np.array_equal(a, add_noise(pts, 10.0, 8))


def test_add_noise_threads_a_generator():
    pts = np.zeros((4, 2))
    gen = np.random.default_rng(5)
    first = add_noise(pts, 1.0, gen)
    second = add_noise(pts, 1.0, gen)
    assert not np.array_equal(first, second)
    fresh = np.random.default_rng(5)
    np.testing.assert_array_equal(first, add_noise(pts, 1.0, fresh))
    with pytest.raises(DomainError):
        add_noise(pts, -1.0, 0)


# ---- generation -------------------------------------------------------------


def test_generate_dataset_reproducible_and_prefix_stable():
    a = generate_dataset(5, seed=7)
    b = generate_dataset(5, seed=7)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.gt3d, rb.gt3d)
        np.testing.assert_array_equal(ra.gt2d, rb.gt2d)
    # per-sample RNG streams: a shorter run is a prefix of a longer one
    c = generate_dataset(3, seed=7)
    for ra, rc in zip(a, c):
        np.testing.assert_array_equal(ra.gt3d, rc.gt3d)


def test_generate_dataset_respects_bounds():
    records = generate_dataset(40, seed=11)
    for r in records:
        z = r.gt3d[:, 2]
        assert z.min() >= DEPTH_RANGE[0] and z.max() <= DEPTH_RANGE[1]
        assert r.gt2d.min() >= IMAGE_MARGIN
        assert r.gt2d.max() <= IMAGE_SIZE - IMAGE_MARGIN
        np.testing.assert_allclose(r.gt2d, project(r.gt3d, r.camera), atol=1e-9)


def test_generate_dataset_seeds_differ():
    a = generate_dataset(10, seed=0)
    b = generate_dataset(10, seed=1)
    wrist_a = np.mean([r.gt3d[0] for r in a], axis=0)
    wrist_b = np.mean([r.gt3d[0] for r in b], axis=0)
    assert not np.allclose(wrist_a, wrist_b, atol=1e-6)
    with pytest.raises(DomainError):
        generate_dataset(0, seed=0)


def test_records_to_arrays_shapes():
    records = generate_dataset(4, seed=2)
    gt2d, gt3d = records_to_arrays(records)
    assert gt2d.shape == (4, 29, 2)
    assert gt3d.shape == (4, 29, 3)


# ---- file IO ----------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    path = str(tmp_path / "data.jsonl")
    records = generate_dataset(6, seed=3)
    save_dataset(path, records)
    loaded = load_dataset(path)
    assert len(loaded) == 6
    for orig, back in zip(records, loaded):
        assert back.id == orig.id
        np.testing.assert_array_equal(back.gt3d, orig.gt3d)
        np.testing.assert_array_equal(back.gt2d, orig.gt2d)
        assert back.camera == orig.camera
        assert back.meta == orig.meta


def test_load_handwritten_fixture(tmp_path):
    gt3d = [[float(10 * i), float(-i), 500.0] for i in range(29)]
    gt2d = [[float(i), float(2 * i)] for i in range(29)]
    row = {"schema_version": 1, "id": 42,
           "camera": {"fx": 600.0, "fy": 600.0, "cx": 320.0, "cy": 320.0},
           "meta": {"subject": "fixture"}, "gt3d": gt3d, "gt2d": gt2d}
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(row) + "\n")
    [rec] = load_dataset(str(path))
    assert rec.id == 42
    np.testing.assert_array_equal(rec.gt3d, np.array(gt3d))
    np.testing.assert_array_equal(rec.gt2d, np.array(gt2d))
    assert rec.camera == Camera()
    assert rec.meta == {"subject": "fixture"}


def write_lines(tmp_path, *lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_load_errors_carry_line_numbers(tmp_path):
    good = json.dumps({"schema_version": 1, "id": 0,
                       "camera": asdict(Camera()), "meta": {},
                       "gt3d": [[0.0, 0.0, 500.0]] * 29,
                       "gt2d": [[0.0, 0.0]] * 29})
    path = write_lines(tmp_path, good, "{not json")
    with pytest.raises(DatasetFormatError, match=":2:"):
        load_dataset(path)

    bad = json.loads(good)
    del bad["gt2d"]
    path = write_lines(tmp_path, good, good, json.dumps(bad))
    with pytest.raises(DatasetFormatError, match="gt2d"):
        load_dataset(path)

    bad = json.loads(good)
    bad["schema_version"] = 99
    path = write_lines(tmp_path, json.dumps(bad))
    with pytest.raises(DatasetFormatError, match="schema_version"):
        load_dataset(path)

    bad = json.loads(good)
    bad["gt3d"] = [[0.0, 0.0, 500.0]] * 28
    path = write_lines(tmp_path, json.dumps(bad))
    with pytest.raises(DatasetFormatError, match=":1:"):
        load_dataset(path)

    path = write_lines(tmp_path, "[1, 2]")
    with pytest.raises(DatasetFormatError, match="object"):
        load_dataset(path)


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="empty"):
        load_dataset(str(path))


def test_sample_record_validation():
    good3d = np.zeros((29, 3)); good3d[:, 2] = 500.0
    good2d = np.zeros((29, 2))
    with pytest.raises(DimensionError):
        SampleRecord(id=0, gt3d=np.zeros((21, 3)), gt2d=good2d)
    with pytest.raises(DomainError):
        bad = good3d.copy(); bad[3, 2] = -1.0
        SampleRecord(id=0, gt3d=bad, gt2d=good2d)
    with pytest.raises(DomainError):
        bad = good3d.copy(); bad[0, 0] = np.nan
        SampleRecord(id=0, gt3d=bad, gt2d=good2d)
