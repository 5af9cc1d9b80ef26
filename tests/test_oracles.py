"""The oracles get tested before anything relies on them."""

import math

import numpy as np
import pytest

from oracles import (
    best_shift,
    correlation_scan,
    covariance_triple_loop,
    episode_loop,
    jacobi_eigh,
    run_lengths,
    scalar_cusum,
)


def test_jacobi_hand_2x2():
    values, vectors = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(values, [3.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(vectors[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_jacobi_diagonal_passthrough():
    values, vectors = jacobi_eigh(np.diag([5.0, 2.0, 1.0]))
    assert np.allclose(values, [5.0, 2.0, 1.0])
    assert np.allclose(np.abs(vectors), np.eye(3))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 4, 7])
def test_jacobi_matches_lapack(seed, k):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k + 2, k))
    a = b.T @ b
    values, vectors = jacobi_eigh(a)
    ref_values, ref_vectors = np.linalg.eigh(a)
    assert np.allclose(values, ref_values[::-1], rtol=1e-10, atol=1e-10)
    for i in range(k):
        assert abs(vectors[:, i] @ ref_vectors[:, k - 1 - i]) > 1 - 1e-9


def test_correlation_scan_hand_case():
    # template [1, 2] at ticks 0..1; sensor s(t) = t over ticks -2..3
    sensor = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    corr = correlation_scan(sensor, -2, [1.0, 2.0], 0, 2)
    # corr(z) = sensor(z) + 2*sensor(1+z) = z + 2(1+z) = 3z + 2
    assert corr == {-2: -4.0, -1: -1.0, 0: 2.0, 1: 5.0, 2: 8.0}
    assert best_shift(corr) == 2


def test_best_shift_tie_breaking():
    assert best_shift({-1: 4.0, 0: 1.0, 1: -4.0}) == -1  # |.| tie at 4: pick z=-1... |z| tie, then smaller z
    assert best_shift({-2: 3.0, 0: 3.0, 2: -3.0}) == 0  # smallest |z| wins
    assert best_shift({0: 0.0, 1: 0.0, -1: 0.0}) == 0


def test_scalar_cusum_hand_values():
    # mu=2, sigma2=1: increment = 2*(x - 1)
    traj = scalar_cusum([1.0, 2.0, 0.0], mu=2.0, sigma2=1.0)
    assert np.allclose(traj, [0.0, 2.0, 0.0])


def test_covariance_triple_loop_hand_case():
    samples = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    expected = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(covariance_triple_loop(samples), expected)


def test_episode_loop_hand_case():
    def step(m):
        return 1.0 if m >= 1 else 0.0

    got = episode_loop([1.0, 2.0], step, [3, 5], sigma2=0.0, horizon=6, seed=1)
    assert got.tolist() == [[0, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 2]]
    # sigma2 = 4: the signal plus twice the seed's normals, block 0 then block 1
    noisy = episode_loop([0.0], step, [0], sigma2=4.0, horizon=300, seed=1)
    normals = np.random.default_rng(1).standard_normal(512)
    assert np.array_equal(noisy[0], 2.0 * normals[:300])


def test_run_lengths_hand_case():
    # trial 0 alarms 5 ticks after its change, trial 1 never alarms, trial 2
    # alarms 8 ticks after its change, trial 3 alarms before its change
    got = run_lengths([5, -1, 12, 3], [0, 0, 4, 4], horizon=20)
    # runs 5, 20, 12, 3: mean 10, squared deviations 25 + 100 + 4 + 49 = 178
    assert got["arl"] == 10.0
    assert got["arl_se"] == pytest.approx(math.sqrt(178 / 3) / 2, rel=1e-15)
    # delays 5 and 8: mean 6.5, sample variance 4.5
    assert got["edd"] == 6.5
    assert got["edd_se"] == pytest.approx(1.5, rel=1e-15)
    assert got["censored_frac"] == 0.25
    assert got["false_alarm_frac"] == 0.25
    assert got["n_used"] == 2


def test_run_lengths_one_and_no_used_trial():
    one = run_lengths([7, 2], [3, 3], horizon=9)
    assert (one["edd"], one["edd_se"], one["n_used"]) == (4.0, math.inf, 1)
    assert one["false_alarm_frac"] == 0.5
    none = run_lengths([-1], [0], horizon=9)
    assert math.isnan(none["edd"]) and math.isnan(none["edd_se"]) and none["n_used"] == 0
    assert (none["arl"], none["arl_se"], none["censored_frac"]) == (9.0, math.inf, 1.0)
