"""Synthetic data: oriented boxes, projection, noise, generation, file IO."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from graphlift.errors import (DatasetFormatError, DegenerateGeometryError,
                              DimensionError, DomainError)
from graphlift.hand import (DEFAULT_PALM_LENGTHS, DEFAULT_SEGMENT_LENGTHS, PALM_YAWS,
                            rotation_zyx)
from graphlift.keypoints import joint_type_indices
from graphlift.synth import (BONE_SCALE_RANGE, BOX_OFFSET, BOX_SIZE_RANGE, CHUNK, DEPTH_RANGE,
                             IMAGE_MARGIN, IMAGE_SIZE, MAX_TRIES, MIN_BOX_DIM_GAP,
                             WRIST_DEPTH_RANGE, WRIST_LATERAL, WRIST_ROT_MAX, Camera,
                             SampleRecord, add_noise, generate_dataset, load_dataset,
                             obb_from_points, project, records_to_arrays, save_dataset)


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


def random_boxes(rng, shape):
    """Rotated, shifted cuboids: vertices of shape shape + (8, 3), in front of the camera."""
    return np.array([
        cuboid_vertices(rng.uniform(20.0, 100.0, size=3),
                        center=rng.uniform(-50.0, 50.0, size=3) + [0.0, 0.0, 500.0],
                        rot=rotation_zyx(rng.uniform(-np.pi, np.pi, size=3)))
        for _ in range(int(np.prod(shape)))
    ]).reshape(shape + (8, 3))


def test_obb_and_project_of_a_stack_equal_the_per_item_calls():
    clouds = random_boxes(np.random.default_rng(4), (2, 3))
    corners = obb_from_points(clouds)
    uv = project(clouds)
    assert corners.shape == (2, 3, 8, 3) and uv.shape == (2, 3, 8, 2)
    for idx in np.ndindex(2, 3):
        assert corners[idx].tobytes() == obb_from_points(clouds[idx]).tobytes()
        assert uv[idx].tobytes() == project(clouds[idx]).tobytes()


def test_one_flat_cloud_in_a_stack_raises():
    clouds = random_boxes(np.random.default_rng(5), (4,))
    obb_from_points(clouds)
    clouds[2] = cuboid_vertices((4.0, 2.0, 0.0), center=(0.0, 0.0, 500.0))
    with pytest.raises(DegenerateGeometryError):
        obb_from_points(clouds)


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


# The one-sample-at-a-time generator of earlier releases, geometry
# included: the oracle for the batched one, which must give the same bytes.


def reference_rotation_zyx(angles):
    rx, ry, rz = np.asarray(angles, dtype=np.float64).reshape(3)
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    rot_x = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    rot_y = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rot_z = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rot_z @ rot_y @ rot_x


def reference_direction(yaw, pitch):
    cp = np.cos(pitch)
    return np.array([np.cos(yaw) * cp, np.sin(yaw) * cp, -np.sin(pitch)])


def reference_hand(rng):
    """Draws one hand and places its 21 joints."""
    scale = rng.uniform(*BONE_SCALE_RANGE)
    wrist_pos = np.array([
        rng.uniform(-WRIST_LATERAL, WRIST_LATERAL),
        rng.uniform(-WRIST_LATERAL, WRIST_LATERAL),
        rng.uniform(*WRIST_DEPTH_RANGE),
    ])
    rot = reference_rotation_zyx(rng.uniform(-WRIST_ROT_MAX, WRIST_ROT_MAX, size=3))
    flexion = np.stack([
        rng.uniform(0.15, 1.10, size=5),
        rng.uniform(0.25, 1.30, size=5),
        rng.uniform(0.10, 0.90, size=5),
    ], axis=1)
    abduction = rng.uniform(-0.20, 0.20, size=5)
    palm_lengths = DEFAULT_PALM_LENGTHS * scale
    segment_lengths = DEFAULT_SEGMENT_LENGTHS * scale
    joints = np.zeros((21, 3))
    joints[0] = wrist_pos
    for f in range(5):
        yaw = PALM_YAWS[f]
        pos = palm_lengths[f] * reference_direction(yaw, 0.0)
        local = [pos.copy()]
        seg_yaw = yaw + abduction[f]
        pitch = 0.0
        for s in range(3):
            pitch += flexion[f, s]
            pos = pos + segment_lengths[f, s] * reference_direction(seg_yaw, pitch)
            local.append(pos.copy())
        for j, p in enumerate(local):
            joints[1 + 4 * f + j] = wrist_pos + rot @ p
    return joints


def reference_box_vertices(rng, anchor):
    while True:
        dims = np.sort(rng.uniform(*BOX_SIZE_RANGE, size=3))
        if np.all(np.diff(dims) >= MIN_BOX_DIM_GAP):
            break
    rot = reference_rotation_zyx(rng.uniform(0.0, np.pi, size=3))
    center = anchor + rng.uniform(-BOX_OFFSET, BOX_OFFSET, size=3)
    verts = np.zeros((8, 3))
    for i in range(8):
        signs = np.array([1.0 if i & (1 << a) else -1.0 for a in range(3)])
        verts[i] = center + rot @ (signs * dims / 2.0)
    return verts


def reference_obb(pts):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / pts.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    axes = eigvecs[:, order].T
    for a in range(2):
        j = int(np.argmax(np.abs(axes[a])))
        if axes[a, j] < 0:
            axes[a] = -axes[a]
    axes[2] = np.cross(axes[0], axes[1])
    proj = centered @ axes.T
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    half = (hi - lo) / 2.0
    mid = centroid + axes.T @ ((hi + lo) / 2.0)
    corners = np.zeros((8, 3))
    for i in range(8):
        signs = np.array([1.0 if i & (1 << a) else -1.0 for a in range(3)])
        corners[i] = mid + axes.T @ (signs * half)
    return corners


def reference_project(pts, camera=Camera()):
    out = np.empty((pts.shape[0], 2))
    out[:, 0] = camera.fx * pts[:, 0] / pts[:, 2] + camera.cx
    out[:, 1] = camera.fy * pts[:, 1] / pts[:, 2] + camera.cy
    return out


def reference_sample(sample_id, rng):
    """The sample and the number of attempts rejected before it."""
    tips = joint_type_indices("tip")
    for tries in range(MAX_TRIES):
        hand = reference_hand(rng)
        corners = reference_obb(reference_box_vertices(rng, hand[tips].mean(axis=0)))
        gt3d = np.vstack([hand, corners])
        z = gt3d[:, 2]
        if z.min() < DEPTH_RANGE[0] or z.max() > DEPTH_RANGE[1]:
            continue
        gt2d = reference_project(gt3d)
        if gt2d.min() < IMAGE_MARGIN or gt2d.max() > IMAGE_SIZE - IMAGE_MARGIN:
            continue
        return SampleRecord(id=sample_id, gt3d=gt3d, gt2d=gt2d,
                            meta={"subject": "synth", "object": "box"}), tries
    raise DomainError(f"no sample within bounds after {MAX_TRIES} tries")


@pytest.mark.parametrize("n, seed", [(1, 0), (40, 11), (500, 42), (2000, 7)])
def test_generate_dataset_matches_the_per_sample_reference(n, seed):
    expected = [reference_sample(i, np.random.default_rng([seed, i])) for i in range(n)]
    records = generate_dataset(n, seed)
    assert len(records) == n
    for (ref, _), rec in zip(expected, records):
        assert type(rec.id) is int and rec.id == ref.id
        assert rec.gt3d.dtype == rec.gt2d.dtype == np.float64
        assert rec.gt3d.tobytes() == ref.gt3d.tobytes()
        assert rec.gt2d.tobytes() == ref.gt2d.tobytes()
        assert rec.meta == ref.meta and rec.camera == ref.camera
    rejected = sum(tries for _, tries in expected)
    # the larger sets run the retry path: some samples need a second attempt
    assert (rejected > 0) == (n >= 500)


@pytest.fixture(scope="module")
def over_two_chunks():
    return generate_dataset(CHUNK + 40, seed=3)


@pytest.mark.parametrize("k", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_generate_dataset_is_a_prefix_across_chunks(over_two_chunks, k):
    for a, b in zip(over_two_chunks[:k], generate_dataset(k, seed=3), strict=True):
        assert a.id == b.id
        assert a.gt3d.tobytes() == b.gt3d.tobytes()
        assert a.gt2d.tobytes() == b.gt2d.tobytes()


def test_generated_records_own_their_arrays(over_two_chunks):
    for r in over_two_chunks:
        assert r.gt3d.base is None and r.gt2d.base is None


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
