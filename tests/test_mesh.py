import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wstack import mesh


def test_slab_matches_published_mesh_split():
    # 4096 rows over 16 ranks
    assert mesh.partition_1d(4096, 16, 3) == (768, 256)


def test_single_rank_slab_is_whole_mesh():
    assert mesh.partition_1d(64, 1, 0) == (0, 64)


def test_unbalanced_split_counts_and_starts():
    assert [mesh.partition_1d(10, 4, i) for i in range(4)] == [
        (0, 3), (3, 3), (6, 2), (8, 2)]


@given(n_v_pow=st.integers(1, 12), n_ranks=st.integers(1, 64))
def test_slabs_cover_and_balance(n_v_pow, n_ranks):
    n_v = 2 ** n_v_pow
    if n_ranks > n_v:
        n_ranks = n_v
    slabs = [mesh.partition_1d(n_v, n_ranks, r) for r in range(n_ranks)]
    assert slabs[0][0] == 0
    for (start, count), (next_start, _) in zip(slabs, slabs[1:]):
        assert next_start == start + count
    assert sum(slabs[-1]) == n_v
    counts = {count for _, count in slabs}
    assert max(counts) - min(counts) <= 1


def test_w_plane_endpoints():
    spec = mesh.GridSpec(n_u=16384, n_v=16384, n_w=24, cell_size_lm=1e-5)
    assert mesh.plane_of_w(spec, 1.0) == 23
    assert mesh.plane_of_w(spec, 0.0) == 0


def test_nearest_plane_rounding():
    spec = mesh.GridSpec(n_u=4, n_v=4, n_w=2, cell_size_lm=1e-3)
    assert mesh.plane_of_w(spec, 0.49) == 0
    assert mesh.plane_of_w(spec, 0.51) == 1
    # Arrays, as prepare_chunk passes them: a half rounds up, and the
    # result keeps the input's shape.
    spec = mesh.GridSpec(n_u=4, n_v=4, n_w=5, cell_size_lm=1e-3)
    w = np.array([[0.0, 0.125, 0.124], [0.375, 0.99, 1.0]])
    assert mesh.plane_of_w(spec, w).tolist() == [[0, 1, 0], [2, 4, 4]]


def test_single_plane_always_zero():
    spec = mesh.GridSpec(n_u=4, n_v=4, n_w=1, cell_size_lm=1e-3)
    assert mesh.plane_of_w(spec, 0.0) == 0
    assert mesh.plane_of_w(spec, 1.0) == 0
    assert mesh.plane_of_w(spec, np.array([0.0, 0.5, 1.0])).tolist() == [0, 0, 0]


@given(st.floats(0.0, 1.0))
def test_plane_index_monotone_in_w(w):
    spec = mesh.GridSpec(n_u=4, n_v=4, n_w=7, cell_size_lm=1e-3)
    k = mesh.plane_of_w(spec, w)
    assert 0 <= k <= 6
    if w < 1.0:
        assert mesh.plane_of_w(spec, min(1.0, w + 1e-3)) >= k


def test_pixel_to_lm_center_and_edge():
    spec = mesh.GridSpec(n_u=4096, n_v=4096, n_w=1, cell_size_lm=1e-4)
    assert mesh.pixel_to_lm(spec, 2048, 2048) == (0.0, 0.0)
    l, m = mesh.pixel_to_lm(spec, 0, 2048)
    assert l == pytest.approx(-0.2048, abs=1e-12)
    assert m == 0.0


def test_pixel_to_lm_point_symmetry():
    spec = mesh.GridSpec(n_u=64, n_v=64, n_w=1, cell_size_lm=1e-3)
    for i in range(1, 64):
        for j in range(1, 64):
            l, m = mesh.pixel_to_lm(spec, i, j)
            lr, mr = mesh.pixel_to_lm(spec, 64 - i, 64 - j)
            assert lr == -l and mr == -m


def test_corner_pixels_stay_inside_unit_disc():
    spec = mesh.GridSpec(n_u=256, n_v=256, n_w=1, cell_size_lm=5e-3)
    for i in (0, 255):
        for j in (0, 255):
            l, m = mesh.pixel_to_lm(spec, i, j)
            assert l * l + m * m < 1.0
    with pytest.raises(ValueError):
        mesh.GridSpec(n_u=256, n_v=256, n_w=1, cell_size_lm=6e-3)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        mesh.GridSpec(n_u=48, n_v=64, n_w=1, cell_size_lm=1e-3)
    with pytest.raises(ValueError):
        mesh.GridSpec(n_u=64, n_v=64, n_w=0, cell_size_lm=1e-3)
    with pytest.raises(ValueError):
        mesh.GridSpec(n_u=64, n_v=64, n_w=1, cell_size_lm=-1e-3)
    with pytest.raises(ValueError):
        mesh.GridSpec(n_u=64, n_v=64, n_w=1, cell_size_lm=1e-3,
                      w_min_native=2.0, w_max_native=1.0)


@pytest.mark.parametrize("field, bad", [
    ("cell_size_lm", math.nan),
    ("w_min_native", math.nan), ("w_max_native", math.nan),
    ("w_min_native", -math.inf), ("w_max_native", math.inf),
])
def test_grid_spec_rejects_non_finite(field, bad):
    kwargs = dict(n_u=64, n_v=64, n_w=2, cell_size_lm=1e-3,
                  w_min_native=0.0, w_max_native=20.0)
    kwargs[field] = bad
    with pytest.raises(ValueError):
        mesh.GridSpec(**kwargs)


def test_plane_w_native_sampling():
    spec = mesh.GridSpec(n_u=4, n_v=4, n_w=5, cell_size_lm=1e-3,
                         w_min_native=10.0, w_max_native=30.0)
    assert spec.plane_w_native(0) == 10.0
    assert spec.plane_w_native(4) == 30.0
    assert spec.plane_w_native(2) == 20.0
    single = mesh.GridSpec(n_u=4, n_v=4, n_w=1, cell_size_lm=1e-3,
                           w_min_native=10.0, w_max_native=30.0)
    assert single.plane_w_native(0) == 20.0
