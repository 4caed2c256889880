import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab.engine import ClusterConfig
from mrlab.errors import ParameterError
from mrlab.kmeans import CenterSet, _nearest, assign, fit_kmeans
from mrlab.sampling import reservoir_sample

from references import column_order_d2


def lloyd_oracle(points, init, iters):
    """Plain single-machine Lloyd with the same tie and empty rules."""
    centers = init.copy()
    trail = []
    for _ in range(iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        sse = float(d2[np.arange(len(points)), labels].sum())
        new_centers = centers.copy()
        for c in range(centers.shape[0]):
            members = points[labels == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
        centers = new_centers
        trail.append((centers.copy(), labels.copy(), sse))
    return trail


# ------------------------------------------------------------------- assign


def test_assign_exact_center_match():
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
    assert assign(np.array([9.0, 1.0]), centers) == 2


def test_assign_tie_goes_to_smallest_index():
    centers = np.array([[-1.0], [1.0]])
    assert assign(np.array([0.0]), centers) == 0


def test_assign_dimension_mismatch():
    with pytest.raises(ParameterError):
        assign(np.array([1.0, 2.0]), np.array([[0.0], [1.0]]))


@given(st.integers(0, 500))
@settings(max_examples=50)
def test_assign_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, 3))
    x = rng.normal(size=3)
    expected = int(np.argmin([np.sum((x - c) ** 2) for c in centers]))
    assert assign(x, centers) == expected


@pytest.mark.parametrize("p", [1, 2, 7, 8, 9, 33])
def test_nearest_sums_squares_in_column_order(p):
    rng = np.random.default_rng(p)
    block = rng.normal(size=(60, p)) * 10.0 ** rng.integers(-3, 4, size=(60, p))
    centers = rng.normal(size=(5, p)) * 10.0 ** rng.integers(-3, 4, size=(5, p))
    want = column_order_d2(block, centers)
    nearest, d2 = _nearest(block, centers)
    np.testing.assert_array_equal(nearest, np.argmin(want, axis=1))
    assert d2.tobytes() == want[np.arange(len(block)), nearest].tobytes()
    assert [assign(row, centers) for row in block] == nearest.tolist()
    if p <= 7:  # numpy's pairwise sum is sequential below 8 terms
        per_center = np.column_stack([((block - c) ** 2).sum(axis=1) for c in centers])
        assert per_center.tobytes() == want.tobytes()


def test_assign_with_no_coordinates_picks_the_first_center():
    assert assign(np.empty(0), np.empty((3, 0))) == 0


# --------------------------------------------------------------- fit_kmeans


def test_fixed_point_converges_in_one_round():
    pts = np.array([[0.0], [10.0]])
    centers, assignments, stats = fit_kmeans(pts, 2, init=pts.copy())
    assert stats.iterations == 1
    assert centers.objective == 0.0
    assert assignments.tolist() == [0, 1]


def test_hand_computed_step():
    pts = np.array([[0.0], [2.0], [10.0], [12.0]])
    centers, assignments, _ = fit_kmeans(pts, 2, init=np.array([[0.0], [10.0]]))
    assert centers.centers.tolist() == [[1.0], [11.0]]
    assert assignments.tolist() == [0, 0, 1, 1]


def test_empty_cluster_keeps_its_center():
    pts = np.array([[0.0], [2.0], [10.0], [12.0]])
    far = 100.0  # attracts no point
    centers, assignments, _ = fit_kmeans(pts, 3, init=np.array([[0.0], [10.0], [far]]))
    assert centers.centers.tolist() == [[1.0], [11.0], [far]]
    assert assignments.tolist() == [0, 0, 1, 1]


def test_parameter_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        fit_kmeans(pts, 0)
    with pytest.raises(ParameterError):
        fit_kmeans(pts, 5)
    with pytest.raises(ParameterError):
        fit_kmeans(pts, 2, init=np.zeros((3, 2)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_with_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal((0, 0), 0.8, size=(40, 2)),
        rng.normal((4, 1), 0.8, size=(40, 2)),
        rng.normal((2, 5), 0.8, size=(40, 2)),
    ])
    init = pts[:3].copy()
    history = []
    centers, assignments, _ = fit_kmeans(
        pts, 3, init=init, max_iters=20, config=ClusterConfig(num_splits=4), history=history,
    )
    oracle = lloyd_oracle(pts, init, len(history))
    for (mine_c, mine_a, mine_sse), (ref_c, ref_a, ref_sse) in zip(history, oracle):
        np.testing.assert_array_equal(mine_a, ref_a)
        np.testing.assert_allclose(mine_c, ref_c, atol=1e-9)
        assert mine_sse == pytest.approx(ref_sse, rel=1e-12)
    np.testing.assert_array_equal(assignments, oracle[len(history) - 1][1])


def test_objective_monotone_non_increasing():
    rng = np.random.default_rng(33)
    pts = rng.normal(size=(150, 3))
    history = []
    fit_kmeans(pts, 4, max_iters=30, seed=5, history=history)
    sses = [h[2] for h in history]
    assert all(b <= a + 1e-12 for a, b in zip(sses, sses[1:]))


def test_io_accounting_by_mode():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 2))
    init = pts[:3].copy()
    _, _, disk = fit_kmeans(pts, 3, init=init, max_iters=7, tol=0.0,
                            config=ClusterConfig(iteration_mode="disk"))
    _, _, mem = fit_kmeans(pts, 3, init=init, max_iters=7, tol=0.0,
                           config=ClusterConfig(iteration_mode="memory"))
    assert disk.records_read == disk.iterations * 50
    assert mem.records_read == 50
    assert disk.iterations == mem.iterations


def test_records_shuffled_per_round_does_not_grow_with_n():
    # each split emits at most k center partials, one objective partial
    # and one assignment block, however many records it holds
    k, splits, rounds = 3, 4, 5
    spots = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
    per_round = []
    for n in (50, 500):
        rng = np.random.default_rng(n)
        pts = spots[np.arange(n) % k] + rng.normal(size=(n, 2))  # every split meets every blob
        _, _, stats = fit_kmeans(pts, k, init=spots, max_iters=rounds, tol=0.0,
                                 config=ClusterConfig(num_splits=splits, iteration_mode="memory"))
        assert stats.iterations == rounds
        per_round.append(stats.records_shuffled / rounds)
    assert per_round[0] == per_round[1]
    assert per_round[0] <= splits * (k + 2)


def test_default_init_samples_k_rows():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 2))
    centers, _, _ = fit_kmeans(pts, 5, max_iters=1, seed=9)
    assert centers.centers.shape == (5, 2)


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_seed_draws_the_reservoir_init(seed):
    pts = np.random.default_rng(8).normal(size=(40, 2))
    drawn, drawn_a, drawn_stats = fit_kmeans(pts, 4, max_iters=1, seed=seed)
    given, given_a, given_stats = fit_kmeans(pts, 4, init=reservoir_sample(pts, 4, seed), max_iters=1)
    np.testing.assert_array_equal(drawn.centers, given.centers)
    np.testing.assert_array_equal(drawn_a, given_a)
    assert drawn.objective == given.objective
    assert drawn_stats == given_stats


def test_split_layout_does_not_change_result():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(64, 2))
    init = pts[:4].copy()
    base_c, base_a, _ = fit_kmeans(pts, 4, init=init, max_iters=15)
    for splits in (2, 8):
        c, a, _ = fit_kmeans(pts, 4, init=init, max_iters=15,
                             config=ClusterConfig(num_splits=splits))
        np.testing.assert_array_equal(a, base_a)
        np.testing.assert_allclose(c.centers, base_c.centers, rtol=1e-12, atol=1e-15)
