"""The dominant-direction kernel: single windows, batched windows, and
the increments along a block."""

import multiprocessing
import sys
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from oracles import covariance_triple_loop, jacobi_eigh
from sscusum import linalg
from sscusum.errors import DimensionMismatchError, NumericalError
from sscusum.linalg import canonicalize_sign, window_increments, window_top_vectors


def _top(window):
    """The sign-canonical top left singular vector of one (k, w) window: the
    dominant direction of its Gram matrix."""
    return canonicalize_sign(window_top_vectors(np.asarray(window, dtype=float)[None])[0])


class TestTopSingularVector:
    """The kernel on single windows; a window ``L`` with ``L @ L.T == a``
    stands for the matrix ``a``."""

    def test_diagonal_dominant_axis(self):
        v = _top(np.diag([2.0, 1.0]))
        assert np.allclose(v, [1.0, 0.0], atol=1e-10)

    def test_symmetric_pair(self):
        v = _top(np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.allclose(v, [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_spiked_matrix_against_jacobi(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        sigma = np.eye(6) + 5.0 * np.outer(u, u)
        v = _top(np.linalg.cholesky(sigma))
        _, vectors = jacobi_eigh(sigma)
        assert abs(v @ vectors[:, 0]) >= 1 - 1e-8

    def test_non_finite_matrix_is_numerical_error(self):
        with pytest.raises(NumericalError, match="non-finite"):
            _top(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericalError):
            _top(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_residual_bound_holds_on_return(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            data = rng.standard_normal((6, 4))
            a = data.T @ data
            v = _top(data.T)
            lam = v @ a @ v
            assert np.linalg.norm(a @ v - lam * v) <= 1e-10 * np.linalg.norm(a)

    def test_scale_invariance(self):
        window = np.linalg.cholesky(
            np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
        )
        base = _top(window)
        assert np.array_equal(_top(2.0 * window), base)  # power of two: exact
        assert np.allclose(_top(3.0 * window), base, atol=1e-9)

    def test_repeated_calls_bitwise_equal(self):
        rng = np.random.default_rng(9)
        window = rng.standard_normal((5, 8))
        assert np.array_equal(_top(window), _top(window))

    def test_sign_canonicalization(self):
        assert canonicalize_sign(np.array([-0.8, 0.6]))[0] == pytest.approx(0.8)
        # tie in magnitude: lowest index decides
        assert np.array_equal(canonicalize_sign(np.array([-0.5, 0.5])), [0.5, -0.5])
        assert np.array_equal(canonicalize_sign(np.array([0.5, -0.5])), [0.5, -0.5])
        # a matrix is canonicalized row by row
        rows = np.array([[-0.8, 0.6], [-0.5, 0.5], [0.5, -0.5], [0.0, 0.0], [0.6, -0.8]])
        assert np.array_equal(
            canonicalize_sign(rows), [[0.8, -0.6], [0.5, -0.5], [0.5, -0.5], [0.0, 0.0], [-0.6, 0.8]]
        )


class TestWindowTopVectors:
    @pytest.mark.parametrize("k, w", [(4, 9), (9, 4)])  # covariance side, Gram side
    def test_matches_jacobi_on_both_gram_sides(self, k, w):
        rng = np.random.default_rng(11)
        windows = rng.standard_normal((6, k, w))
        windows[:, 0] *= 2.0  # a clear leading direction
        u = window_top_vectors(windows)
        x = rng.standard_normal(k)
        for i, win in enumerate(windows):
            values, vectors = jacobi_eigh(covariance_triple_loop(win.T))
            assert values[0] > values[1]
            assert np.linalg.norm(u[i]) == pytest.approx(1.0, abs=1e-12)
            assert abs(u[i] @ vectors[:, 0]) >= 1 - 1e-10
            assert (u[i] @ x) ** 2 == pytest.approx((vectors[:, 0] @ x) ** 2, abs=1e-8)

    def test_zero_window_gives_zero_row(self):
        windows = np.ones((3, 4, 5))
        windows[1] = 0.0
        u = window_top_vectors(windows)
        assert np.array_equal(u[1], np.zeros(4))
        assert np.allclose(np.abs(u[[0, 2]]), 0.5)

    @pytest.mark.parametrize("scale", [1e-160, 1e-162])
    def test_subnormal_gram_gets_unit_direction(self, scale):
        windows = np.random.default_rng(12).standard_normal((1, 3, 5)) * scale
        grams = windows @ windows.transpose(0, 2, 1)
        assert grams.any() and np.abs(grams).max() < np.finfo(float).tiny  # subnormal
        u = window_top_vectors(windows)
        assert np.linalg.norm(u[0]) == pytest.approx(1.0, abs=1e-12)

    def test_underflowing_gram_gives_zero_row(self):
        windows = np.random.default_rng(12).standard_normal((2, 3, 5))
        windows[1] *= 1e-170  # every product underflows: the Gram is exactly zero
        assert not (windows[1] @ windows[1].T).any()
        u = window_top_vectors(windows)
        assert np.array_equal(u[1], np.zeros(3))
        assert np.linalg.norm(u[0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])  # 1e200 overflows the Gram
    def test_non_finite_is_numerical_error(self, bad):
        windows = np.ones((2, 3, 4))
        windows[1, 2, 3] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            window_top_vectors(windows)


def _planted(rng, k, w, values):
    """A (k, w) window whose covariance and Gram both have the eigenvalues
    ``values`` (min(k, w) of them, largest first); the covariance's top
    eigenvector is the first column of a random orthonormal basis."""
    m = min(k, w)
    q = np.linalg.qr(rng.standard_normal((k, m)))[0]
    p = np.linalg.qr(rng.standard_normal((w, m)))[0]
    return (q * np.sqrt(values)) @ p.T


def _spectrum(rng, n, ratio):
    """lambda_1 = 1, lambda_2 = ratio, the rest below 0.9 * ratio."""
    return np.concatenate([[1.0, ratio], ratio * rng.uniform(0.0, 0.9, n - 2)])


@pytest.fixture
def eigh_windows(monkeypatch):
    """Counts the windows the kernel hands to its eigh route."""
    sent = []
    route = linalg._eigh_top

    def counting(grams):
        sent.append(len(grams))
        return route(grams)

    monkeypatch.setattr(linalg, "_eigh_top", counting)
    return sent


class TestSquaringCertificate:
    """Repeated squaring with its certificate: accepted windows match the
    Jacobi oracle, and the windows it cannot certify take the eigh route."""

    @pytest.mark.parametrize("k, w", [(12, 30), (30, 12)])  # covariance side, Gram side
    def test_matches_jacobi_at_larger_orders(self, k, w):
        rng = np.random.default_rng(21)
        windows = rng.standard_normal((6, k, w))
        windows[:, 0] *= 2.0  # a clear leading direction
        u = window_top_vectors(windows)
        x = rng.standard_normal(k)
        for i, win in enumerate(windows):
            values, vectors = jacobi_eigh(covariance_triple_loop(win.T))
            assert values[0] > values[1]
            assert np.linalg.norm(u[i]) == pytest.approx(1.0, abs=1e-12)
            assert 1 - abs(u[i] @ vectors[:, 0]) <= 1e-12
            assert (u[i] @ x) ** 2 == pytest.approx((vectors[:, 0] @ x) ** 2, abs=1e-8)

    @pytest.mark.parametrize("n", [8, 12, 20, 32])
    def test_gap_sweep_matches_jacobi(self, n, eigh_windows):
        # twelve squarings certify lambda_2 / lambda_1 = 0.99 at every order
        # here; from 0.994 on, no window can be certified
        rng = np.random.default_rng(22 + n)
        for ratio, to_eigh in [(0.5, 0), (0.9, 0), (0.99, 0), (0.994, 4), (0.999, 4),
                               (1 - 1e-6, 4)]:
            windows = np.array([_planted(rng, n, n, _spectrum(rng, n, ratio)) for _ in range(4)])
            eigh_windows.clear()
            u = window_top_vectors(windows)
            assert sum(eigh_windows) == to_eigh, ratio
            for i, win in enumerate(windows):
                _, vectors = jacobi_eigh(covariance_triple_loop(win.T))
                assert 1 - abs(u[i] @ vectors[:, 0]) <= 1e-12, ratio

    def test_certificate_bound_is_sharp(self, eigh_windows):
        # at n = 8 the certificate reads 8 (1 - f) = 16 rho / (1 + rho)^2 with
        # rho = (lambda_2 / lambda_1)^4096: accepted at half the 1e-11 bound,
        # sent to eigh at twice it
        rng = np.random.default_rng(23)
        for reading, to_eigh in [(0.5e-11, 0), (2e-11, 8)]:
            ratio = (reading / 16) ** (1 / 4096)
            values = np.concatenate([[1.0, ratio], 0.5 * rng.uniform(size=6)])
            windows = np.array([_planted(rng, 8, 20, values) for _ in range(8)])
            eigh_windows.clear()
            window_top_vectors(windows)
            assert sum(eigh_windows) == to_eigh, reading

    @pytest.mark.parametrize("k, w", [(12, 20), (30, 12)])
    def test_near_tie_equals_the_eigh_route(self, k, w):
        rng = np.random.default_rng(24)
        n = min(k, w)
        windows = np.array([_planted(rng, k, w, _spectrum(rng, n, 1 - 1e-9)) for _ in range(3)])
        assert np.array_equal(window_top_vectors(windows),
                              linalg._directions(windows, linalg._eigh_top))

    @pytest.mark.parametrize("k, w", [(8, 20), (20, 8)])
    def test_zero_and_underflowing_grams_give_zero_rows(self, k, w):
        windows = np.random.default_rng(25).standard_normal((3, k, w))
        windows[1] = 0.0
        windows[2] *= 1e-170  # every product underflows: the Gram is exactly zero
        assert not (windows[2] @ windows[2].T).any()
        u = window_top_vectors(windows)
        assert not u[1:].any()
        assert np.linalg.norm(u[0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k, w", [(8, 20), (20, 8)])
    def test_subnormal_gram_gets_unit_direction(self, k, w):
        windows = np.random.default_rng(26).standard_normal((1, k, w)) * 1e-160
        side = windows if k <= w else windows.transpose(0, 2, 1)
        grams = side @ side.transpose(0, 2, 1)
        assert grams.any() and np.abs(grams).max() < np.finfo(float).tiny  # subnormal
        u = window_top_vectors(windows)
        assert np.isfinite(u).all()
        assert np.linalg.norm(u[0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k, w", [(8, 20), (20, 8)])
    def test_silent_sensor_gets_no_weight(self, k, w):
        rng = np.random.default_rng(27)
        windows = rng.standard_normal((4, k, w))
        windows[:, 0] *= 2.0
        windows[:, 3] = 0.0  # one all-zero sensor row
        u = window_top_vectors(windows)
        for i, win in enumerate(windows):
            _, vectors = jacobi_eigh(covariance_triple_loop(win.T))
            assert 1 - abs(u[i] @ vectors[:, 0]) <= 1e-12
            assert abs(u[i, 3]) <= 1e-15

    @pytest.mark.parametrize("k, w", [(8, 20), (20, 8)])
    def test_stack_equals_one_window_calls(self, k, w, eigh_windows):
        rng = np.random.default_rng(28)
        windows = rng.standard_normal((256, k, w))
        n = min(k, w)
        for i in (5, 77, 200):  # near ties, which take the eigh route
            windows[i] = _planted(rng, k, w, _spectrum(rng, n, 1 - 1e-7))
        windows[90] = 0.0
        stacked = window_top_vectors(windows)
        assert 3 <= sum(eigh_windows) < 64  # the stack mixes both routes
        for i, win in enumerate(windows):
            assert np.array_equal(stacked[i], window_top_vectors(win[None])[0]), i


@pytest.mark.parametrize("k, w", [(3, 5), (5, 3)])  # covariance side, Gram side
def test_empty_stack_gives_no_directions(k, w):
    top = window_top_vectors(np.zeros((0, k, w)))
    assert top.shape == (0, k) and top.dtype == float


def test_nested_list_is_taken_as_an_array():
    rng = np.random.default_rng(29)
    windows = rng.standard_normal((3, 4, 6))
    assert np.array_equal(window_top_vectors(windows.tolist()), window_top_vectors(windows))
    ones = [[[1, 1, 1], [1, 1, 1]]]  # integers become floats
    assert np.allclose(np.abs(window_top_vectors(ones)), np.sqrt(0.5))
    with pytest.raises(DimensionMismatchError, match=r"must be \("):
        window_top_vectors([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: window_top_vectors(np.ones((2, 3))),
        lambda: window_top_vectors(np.ones(3)),
        lambda: window_top_vectors(np.ones((2, 2, 3, 4))),
        lambda: window_increments(np.ones(5), 2),
        lambda: window_increments(np.ones((2, 2, 3, 6)), 2),
    ],
    ids=["top-2d", "top-1d", "top-4d", "increments-1d", "increments-4d"],
)
def test_wrong_dimension_names_the_expected_shape(call):
    with pytest.raises(DimensionMismatchError, match=r"must be \("):
        call()


def _trial_blocks(trials, k, m, w, seed):
    blocks = np.random.default_rng(seed).standard_normal((trials, k, m + w))
    blocks[:, 0] *= 2.0  # a clear leading direction
    return blocks


class TestWindowIncrements:
    @pytest.mark.parametrize("k, w", [(4, 9), (9, 4)])  # covariance side, Gram side
    def test_trial_axis_equals_separate_calls(self, k, w):
        m = 2 * linalg.TASK + 37  # three tasks per trial, the last one short
        blocks = _trial_blocks(3, k, m, w, seed=13)
        stacked = window_increments(blocks, w)
        assert stacked.shape == (3, m)
        for t, block in enumerate(blocks):
            assert np.array_equal(stacked[t], window_increments(block, w))

    @pytest.mark.parametrize("k, w", [(4, 9), (9, 4)])
    def test_trial_axis_matches_jacobi(self, k, w, monkeypatch):
        monkeypatch.setattr(linalg, "TASK", 16)  # 40 windows: tasks of 16, 16 and 8
        m = 40
        blocks = _trial_blocks(2, k, m, w, seed=14)
        stacked = window_increments(blocks, w)
        for t, block in enumerate(blocks):
            for j in range(m):
                _, vectors = jacobi_eigh(covariance_triple_loop(block[:, j + 1 : j + 1 + w].T))
                assert stacked[t, j] == pytest.approx((vectors[:, 0] @ block[:, j]) ** 2, abs=1e-8)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_overflowing_scored_column_is_numerical_error(self, trials):
        # column 0 is scored but sits in no window, so no Gram check sees it
        blocks = _trial_blocks(trials, 3, 30, 5, seed=15)
        blocks[-1, 0, 0] = 1e200
        with pytest.raises(NumericalError, match="non-finite squared projection"):
            window_increments(blocks if trials > 1 else blocks[0], 5)

    def test_nested_list_is_taken_as_an_array(self):
        # a list raised a raw AttributeError ('list' object has no attribute 'ndim')
        block = _trial_blocks(1, 3, 12, 4, seed=35)[0]
        assert np.array_equal(window_increments(block.tolist(), 4), window_increments(block, 4))

    def test_fractional_w_rejected(self):
        # used to raise a raw TypeError from the window view
        with pytest.raises(ValueError, match="^w must be an integer, got 2.5"):
            window_increments(np.zeros((3, 20)), 2.5)

    def test_bool_w_rejected(self):
        # used to raise a raw TypeError ("an integer is required")
        with pytest.raises(ValueError, match="^w must be an integer, got True"):
            window_increments(np.zeros((3, 20)), True)


class TestWorkerCount:
    def test_results_do_not_depend_on_the_worker_count(self, workers, monkeypatch):
        # more workers than CPUs, tasks of 7 windows and frequent thread
        # switches: a task that wrote outside its own slice would show here
        monkeypatch.setattr(linalg, "TASK", 7)
        blocks = _trial_blocks(5, 6, 200, 4, seed=16)
        workers(1)
        serial = window_increments(blocks, 4)
        workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert np.array_equal(window_increments(blocks, 4), serial)
        finally:
            sys.setswitchinterval(interval)

    def test_one_task_runs_on_the_callers_thread(self, workers):
        workers(2)
        window_increments(_trial_blocks(1, 3, linalg.TASK, 5, seed=18)[0], 5)
        assert linalg._pool is None  # one task: no pool was started
        window_increments(_trial_blocks(2, 3, linalg.TASK, 5, seed=18), 5)
        assert linalg._pool is not None

    def test_error_in_the_last_task_surfaces_and_pool_recovers(self, workers):
        m = 3 * linalg.TASK + 5
        blocks = _trial_blocks(2, 3, m, 5, seed=17)
        bad = blocks.copy()
        bad[-1, 1, -1] = np.nan  # only the last window of the last trial sees it
        workers(1)
        with pytest.raises(NumericalError) as serial:
            window_increments(bad, 5)
        expected = window_increments(blocks, 5)
        workers(2)
        with pytest.raises(NumericalError) as pooled:
            window_increments(bad, 5)
        assert str(pooled.value) == str(serial.value)
        assert np.array_equal(window_increments(blocks, 5), expected)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_forked_child_starts_its_own_pool(self, workers):
        workers(2)
        blocks = _trial_blocks(2, 3, linalg.TASK, 5, seed=19)
        expected = window_increments(blocks, 5)  # the parent's pool is running
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_increments_into, args=(queue, blocks))
        child.start()
        try:
            got = queue.get(timeout=20)  # before join: a full queue blocks the child's exit
        finally:
            child.join(timeout=20)
            if child.is_alive():
                child.terminate()
        assert np.array_equal(got, expected)
        assert child.exitcode == 0


def _increments_into(queue, blocks):
    queue.put(window_increments(blocks, 5))


class TestBandGrams:
    """With more sensors than samples (k > w), ``window_increments`` builds
    each task's window Grams from one product per pair of ticks."""

    @pytest.mark.parametrize("k, w", [(30, 8), (125, 20), (3, 1)])
    def test_window_bits_do_not_depend_on_its_place(self, k, w, workers, monkeypatch):
        # one window, scored at four block offsets in four trial rows, with
        # tasks of 7 windows (so at four places within a task) and on 1 and
        # 4 workers: the same bits every time
        rng = np.random.default_rng(31)
        scored = rng.standard_normal((k, w + 1))
        offsets = [1, 3, 37, 129]
        blocks = rng.standard_normal((len(offsets), k, 140 + w))
        for row, j in enumerate(offsets):
            blocks[row, :, j : j + w + 1] = scored
        monkeypatch.setattr(linalg, "TASK", 7)
        got = []
        for n in (1, 4):
            workers(n)
            inc = window_increments(blocks, w)
            got += [inc[row, j] for row, j in enumerate(offsets)]
            got += [window_increments(blocks[row, :, j : j + w + 1], w)[0]
                    for row, j in enumerate(offsets)]
        monkeypatch.setattr(linalg, "TASK", 256)
        got.append(window_increments(blocks[2], w)[37])
        assert got[0] > 0
        assert all(g == got[0] for g in got), got

    @pytest.mark.parametrize("k, w", [(125, 20), (50, 20), (21, 20)])
    def test_matches_jacobi(self, k, w):
        # the oracle diagonalizes each window's (w, w) Gram, summed element by
        # element, and projects its top eigenvector back to k dimensions
        rng = np.random.default_rng(32)
        m = 5
        block = rng.standard_normal((k, m + w))
        block[0] *= 2.0  # a clear leading direction
        inc = window_increments(block, w)
        windows = sliding_window_view(block, w, axis=1)[:, 1:].transpose(1, 0, 2)
        u = linalg._directions(windows, linalg._squared_top, linalg._band_grams(block[:, 1:], w))
        assert 1 - np.abs(np.einsum("bk,bk->b", u, window_top_vectors(windows))).min() <= 1e-12
        for j, win in enumerate(windows):
            values, vectors = jacobi_eigh(covariance_triple_loop(win))
            assert values[0] > values[1]
            u_j = win @ vectors[:, 0]
            u_j /= np.linalg.norm(u_j)
            assert 1 - abs(u[j] @ u_j) <= 1e-12
            assert inc[j] == pytest.approx((u_j @ block[:, j]) ** 2, rel=1e-8)

    @pytest.mark.parametrize("scale", [0.0, 1e-170])  # 1e-170: every product underflows
    def test_zero_gram_window_scores_zero(self, scale):
        block = np.random.default_rng(33).standard_normal((30, 60))
        block[:, 21:29] *= scale  # the window of column 20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inc = window_increments(block, 8)
        assert inc[20] == 0.0
        assert (inc[:20] > 0).all()  # each of these windows holds a full-size tick

    def test_overflow_names_the_window_gram_matrix(self):
        block = np.random.default_rng(34).standard_normal((30, 60))
        block[4, 33] = 1e200  # in a window, so its square overflows the Gram
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^non-finite window Gram matrix"):
                window_increments(block, 8)
