"""Oscillatory integrals Phi_t(a), their step increments, and irregularity estimation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modnls import phi as phi_module
from modnls.errors import ConfigError, NumericsError
from modnls.paths import SamplePath, make_fbm_path, make_linear_path
from modnls.phi import (
    IrregularityReport,
    _phi_at_times,
    default_a_grid,
    default_pairs,
    estimate_irregularity,
    largest_bounded_rho,
    phi_increment,
    trend_slope,
)
from tests.conftest import gl_phase_integral, step_phi_increments

FBM = make_fbm_path(0.5, 1.0, 64, seed=3)
WALK_RTOL = 64 * np.finfo(float).eps


def test_linear_path_closed_form():
    path = make_linear_path(1.0, 32)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.uniform(-40, 40)
        s, t = np.sort(rng.uniform(0, 1, size=2))
        if abs(a) < 1e-6 or t - s < 1e-9:
            continue
        expected = (np.exp(1j * a * t) - np.exp(1j * a * s)) / (1j * a)
        assert phi_increment(path, a, s, t) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("dw", [0.0, 1e-300, 1e-12])
def test_tiny_segment_slopes_against_closed_form(dw):
    # one segment of slope dw, cut in two at t = 0.35, on a walked grid
    # (steps 0.5 and 1, a = 0 included): dt sin(x)/x keeps its relative
    # accuracy as x = a dw / 2 -> 0 and dw == 0 takes dt, with no Taylor branch
    path = SamplePath(t_grid=np.array([0.0, 1.0]), values=np.array([0.0, dw]))
    a = np.concatenate([np.arange(0.0, 40.0, 0.5), np.arange(40.0, 200.0)])
    got = _phi_at_times(path, a, [0.35, 1.0])
    for j, t in enumerate((0.35, 1.0)):
        x = a * dw * t  # Phi_t(a) = t (e^{ix} - 1) / (ix), the Taylor sum at |x| < 1e-9
        closed = t * sum((1j * x) ** m / math.factorial(m + 1) for m in range(4))
        # relative, both parts: at most 64 walked steps of one rounding each
        np.testing.assert_allclose(got[:, j].real, closed.real, rtol=WALK_RTOL, atol=0)
        np.testing.assert_allclose(got[:, j].imag, closed.imag, rtol=WALK_RTOL, atol=0)


@given(
    a=st.floats(min_value=-40, max_value=40),
    cuts=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
)
def test_phi_increment_additive(a, cuts):
    s, r, t = np.sort(cuts)
    whole = phi_increment(FBM, a, s, t)
    split = phi_increment(FBM, a, s, r) + phi_increment(FBM, a, r, t)
    assert whole == pytest.approx(split, abs=1e-12)


def test_phi_zero_frequency_is_elapsed_time():
    assert phi_increment(FBM, 0.0, 0.1, 0.85) == pytest.approx(0.75, abs=1e-14)


def test_phi_conjugate_symmetry():
    for a in (3.3, 17.0, 80.5):
        fwd = phi_increment(FBM, a, 0.05, 0.9)
        rev = phi_increment(FBM, -a, 0.05, 0.9)
        assert rev == pytest.approx(np.conj(fwd), abs=1e-14)


def test_phi_against_quadrature_oracle():
    for a in (3.7, 17.2, -41.5):
        for s, t in ((0.0, 1.0), (0.13, 0.77), (0.5, 0.515)):
            oracle = gl_phase_integral(FBM, a, s, t)
            assert phi_increment(FBM, a, s, t) == pytest.approx(oracle, abs=1e-12)


ONE_SEGMENT = SamplePath(t_grid=np.array([0.0, 0.7]),
                         values=np.array([0.0, -1.3]), offset=0.2)
STEP = FBM.T / FBM.M


@pytest.mark.parametrize("path,times", [
    (FBM, [0.0, 0.25, 1.0]),  # includes 0
    (FBM, [0.5, 0.125, 0.5, 0.0, 0.125]),  # duplicates
    (FBM, [0.9, 0.1, 0.6, 0.3]),  # unsorted
    (FBM, [0.3 * STEP, 7.5 * STEP, 40.25 * STEP, 1.0]),  # between nodes
    (FBM, [0.0, 0.0]),  # all zero
    (ONE_SEGMENT, [0.0, 0.35, 0.7, 0.1]),  # a one-segment path
])
def test_phi_at_times_against_quadrature(path, times):
    a = np.array([0.0, 3.7, -17.2, 41.5, -0.25])
    got = _phi_at_times(path, a, times)
    assert got.shape == (a.size, len(times))
    for j, t in enumerate(times):
        oracle = np.atleast_1d(gl_phase_integral(path, a, 0.0, t))
        np.testing.assert_allclose(got[:, j], oracle, rtol=0, atol=1e-12)


def _phi_two_exponentials(path, a, times):
    """Phi at times: full-length cumsum of e^{i a w0} dt (e^{i a dw} - 1)/(i a dw)."""
    t_req = np.asarray(times, dtype=float)
    inner = path.t_grid[(path.t_grid > 0) & (path.t_grid < t_req.max())]
    merged = np.unique(np.concatenate([[0.0], inner, t_req]))
    w = np.interp(merged, path.t_grid, path.values) + path.offset
    dt, dw, a = np.diff(merged), np.diff(w), np.asarray(a, dtype=float)[:, None]
    x = a * dw
    ratio = np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))  # (e^{ix} - 1)/(ix)
    seg = np.exp(1j * a * w[:-1]) * dt * ratio
    pref = np.concatenate([np.zeros((a.shape[0], 1)), np.cumsum(seg, axis=1)], axis=1)
    return pref[:, np.searchsorted(merged, t_req)]


def test_phi_at_times_against_two_exponential_cumsum():
    path = make_fbm_path(0.3, 1.0, 1024, seed=11)
    a = default_a_grid(48.0)
    pairs = default_pairs(path)
    times = np.concatenate([pairs.ravel(), [0.0, 0.3337, 0.71]])
    old = _phi_two_exponentials(path, a, times)
    np.testing.assert_allclose(_phi_at_times(path, a, times), old,
                               rtol=0, atol=1e-13)
    old = _phi_two_exponentials(path, np.arange(41), path.t_grid)
    got = np.array([step_phi_increments(path, 0.0, t, 40)[40:] for t in path.t_grid])
    np.testing.assert_allclose(got, old.T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("every", [3 * 64, 5 * 64 + 17, 1])
def test_phi_at_times_chunks_agree(monkeypatch, every):
    # 500 rows of |a| in steps of 1/4, walked in chunks of 192 and 337
    # rows between anchors (ragged last chunk) or all anchors, against the
    # default chunking; negative frequencies are conjugated walked rows
    a = np.concatenate([np.arange(500) * 0.25, -np.arange(1, 500, 13) * 0.25])
    times = [0.5, 0.0, 1.0, 0.25 + 0.5 * STEP]
    whole = _phi_at_times(FBM, a, times)
    monkeypatch.setattr(phi_module, "_WALK_ANCHOR_EVERY", every)
    np.testing.assert_allclose(_phi_at_times(FBM, a, times), whole,
                               rtol=0, atol=1e-14)


def _irregularity_shape():
    """The irregularity workload's _phi_at_times call: 1089 frequencies,
    16384 segments, 151 times."""
    path = make_fbm_path(0.5, 1.0, 2 ** 14, seed=3)
    return path, default_a_grid(64.0), np.unique(default_pairs(path).ravel())


def test_walked_rows_equal_anchor_rows(monkeypatch):
    path, a, times = _irregularity_shape()
    calls = []
    cis = phi_module._cis
    monkeypatch.setattr(phi_module, "_cis", lambda x: calls.append(1) or cis(x))
    walked = _phi_at_times(path, a, times)
    # 18 anchors (every 64th row) and the factors of the two gaps, 1/32 and 1/16
    assert len(calls) == 2 * (18 + 2)
    monkeypatch.setattr(phi_module, "_WALK_ANCHOR_EVERY", 1)
    np.testing.assert_allclose(walked, _phi_at_times(path, a, times),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("path,times", [
    (FBM, [0.0, 0.25, 1.0, 0.125, 0.25]),
    (ONE_SEGMENT, [0.0, 0.35, 0.7, 0.1]),
])
def test_walked_rows_against_quadrature(path, times):
    # three gaps (0.25, 0.5, 3) reused; unsorted, duplicated and negative
    # frequencies and a = 0 all land on walked rows of |a|
    rows = np.concatenate([np.arange(0.0, 20.0, 0.25), np.arange(20.0, 45.0, 0.5),
                           np.arange(45.0, 75.0, 3.0)])
    a = np.random.default_rng(5).permutation(
        np.concatenate([rows, -rows[::7], rows[5:9], [0.0, -0.0]]))
    got = _phi_at_times(path, a, times)
    for j, t in enumerate(times):
        oracle = np.atleast_1d(gl_phase_integral(path, a, 0.0, t))
        np.testing.assert_allclose(got[:, j], oracle, rtol=0, atol=1e-12)


def test_walk_to_the_largest_table_frequency():
    # R = (k+1) d N^2 = 31827 at (1, 2, 103): integer frequencies on a 256-step
    # clock, against the two-exponential form on the top rows and every
    # 97th; the walk restarts every 64 rows, so its rounding stays that
    # of the closed form's phase a w, about 1e-16 |a w| per segment
    path = make_fbm_path(0.5, 1.0, 256, seed=4)
    a = np.arange(31828.0)
    times = path.t_grid[::32]
    got = _phi_at_times(path, a, times)
    rows = np.concatenate([np.arange(0, a.size, 97), np.arange(a.size - 130, a.size)])
    np.testing.assert_allclose(got[rows], _phi_two_exponentials(path, a[rows], times),
                               rtol=0, atol=1e-13)


def test_phi_at_times_working_set_is_bounded():
    path, a, times = _irregularity_shape()
    tracemalloc.start()
    try:
        _phi_at_times(path, a, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_phi_domain_errors():
    with pytest.raises(ValueError):
        phi_increment(FBM, 1.0, 0.5, 0.4)
    with pytest.raises(ValueError):
        phi_increment(FBM, 1.0, 0.0, 1.5)


def test_table_matches_phi_increment():
    assert step_phi_increments(FBM, 0.0, FBM.T, 6).shape == (13,)
    for i_s, i_t in ((0, 10), (3, 40), (20, 64)):
        inc = step_phi_increments(FBM, FBM.t_grid[i_s], FBM.t_grid[i_t], 6)
        for mu in range(-6, 7):
            direct = phi_increment(FBM, mu, FBM.t_grid[i_s], FBM.t_grid[i_t])
            assert inc[mu + 6] == pytest.approx(direct, abs=1e-13)


# a clock with flat segments and one with an offset, both on FBM's nodes
FLAT = SamplePath(FBM.t_grid, np.where((np.arange(FBM.M + 1) // 4) % 2, 0.3, FBM.values))
OFFSET = SamplePath(FBM.t_grid, FBM.values, offset=0.75)


@pytest.mark.parametrize("path,i_s,i_t", [
    (FBM, 20, 21), (FBM, 3, 10), (FBM, 0, FBM.M),
    (FLAT, 5, 7), (FLAT, 2, 30), (OFFSET, 20, 21), (OFFSET, 9, 60),
])
def test_step_increment_from_the_clock(path, i_s, i_t):
    # one segment, seven, the whole clock, flat segments and an offset: the
    # step's Phi increment, integrated on its own segments, over 200 rows
    # (three anchors and a ragged tail) against quadrature
    got = step_phi_increments(path, path.t_grid[i_s], path.t_grid[i_t], 200)
    want = gl_phase_integral(path, np.arange(-200, 201), path.t_grid[i_s], path.t_grid[i_t])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_step_increment_to_the_largest_table_frequency():
    # R = 31827 rows at (1, 2, 103) on a 256-step clock: the top rows and
    # every 97th of a short step, a long one and the whole clock against
    # the two-exponential form
    path = make_fbm_path(0.5, 1.0, 256, seed=4)
    a = np.arange(31828.0)
    rows = np.concatenate([np.arange(0, a.size, 97), np.arange(a.size - 130, a.size)])
    for i_s, i_t in ((40, 41), (7, 100), (0, 256)):
        ends = _phi_two_exponentials(path, a[rows], path.t_grid[[i_s, i_t]])
        got = step_phi_increments(path, *path.t_grid[[i_s, i_t]], 31827)[31827:][rows]
        np.testing.assert_allclose(got, ends[:, 1] - ends[:, 0], rtol=0, atol=1e-13)


def test_default_a_grid_shape():
    grid = default_a_grid(16.0)
    assert grid[0] == 0.0
    assert grid.max() == 16.0
    assert np.all(np.diff(grid) > 0)
    assert np.all(np.isin(np.arange(17.0), grid))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="a_max"):
            default_a_grid(bad)
    # priced as 17 ceil(a_max) + 1 points before allocating: c03's grid
    # holds 1089, and 1e7 asks for 1.7e8 against the 4e7 memory budget
    assert default_a_grid(64.0).size == 1089
    for a_max in (0.3, 1.0, 16.0, 64.5):
        assert default_a_grid(a_max).size <= 17 * np.ceil(a_max) + 1
    with pytest.raises(NumericsError, match="memory budget"):
        default_a_grid(1e7)


def test_default_pairs_on_grid():
    pairs = default_pairs(FBM)
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    assert np.all(pairs[:, 0] < pairs[:, 1])
    on_grid = np.isin(np.round(pairs / (FBM.T / FBM.M)).astype(int),
                      np.arange(FBM.M + 1))
    assert np.all(on_grid)


def test_irregularity_linear_dichotomy_smoke():
    path = make_linear_path(1.0, 512)
    reports = estimate_irregularity(path, gamma=0.5, a_max=32.0,
                                    rho_grid=[0.3, 0.8])
    assert trend_slope(reports[1]) > trend_slope(reports[0])
    assert trend_slope(reports[1]) > 0.1


def test_irregularity_report_json_keys():
    rep = estimate_irregularity(FBM, gamma=0.55, a_max=8.0, rho_grid=[0.5],
                                a_grid=default_a_grid(8.0),
                                pairs=default_pairs(FBM))[0]
    payload = rep.to_json_dict()
    assert set(payload) == {"rho", "gamma", "norm_estimate", "a_max",
                            "pair_count", "trend"}
    assert payload["norm_estimate"] == rep.trend[-1]
    assert payload["pair_count"] == rep.pair_count


def test_trend_slope_on_synthetic_reports():
    levels = [4.0, 8.0, 16.0, 32.0, 64.0]
    flat = IrregularityReport(rho=0.3, gamma=0.5, norm_estimate=1.0,
                              a_max=64.0, pair_count=10,
                              trend=[1.0] * 5, trend_a_max=levels)
    growing = IrregularityReport(rho=0.9, gamma=0.5, norm_estimate=16.0,
                                 a_max=64.0, pair_count=10,
                                 trend=[1.0, 2.0, 4.0, 8.0, 16.0],
                                 trend_a_max=levels)
    assert trend_slope(flat) == pytest.approx(0.0, abs=1e-12)
    assert trend_slope(growing) == pytest.approx(1.0, abs=1e-12)
    assert largest_bounded_rho([flat, growing]) == 0.3
    assert largest_bounded_rho([growing]) is None


def test_estimate_irregularity_monotone_in_rho():
    reports = estimate_irregularity(FBM, gamma=0.55, a_max=16.0,
                                    rho_grid=[0.0, 0.5, 1.0])
    norms = [rep.norm_estimate for rep in reports]
    assert norms[0] <= norms[1] <= norms[2]
    assert [rep.rho for rep in reports] == [0.0, 0.5, 1.0]


def test_irregularity_validation():
    pairs = default_pairs(FBM)
    grid = default_a_grid(4.0)
    with pytest.raises(ConfigError):
        estimate_irregularity(FBM, gamma=0.5, a_max=4.0, rho_grid=[-0.1],
                              a_grid=grid, pairs=pairs)
    with pytest.raises(ConfigError):
        estimate_irregularity(FBM, gamma=1.5, a_max=4.0, rho_grid=[0.5],
                              a_grid=grid, pairs=pairs)
    with pytest.raises(ConfigError):
        estimate_irregularity(FBM, gamma=0.5, a_max=4.0, rho_grid=[0.5],
                              a_grid=grid, pairs=np.array([[0.5, 0.25]]))
    with pytest.raises(ConfigError):
        estimate_irregularity(FBM, gamma=0.5, a_max=4.0, rho_grid=[0.5],
                              a_grid=grid, pairs=np.array([[0.25, np.nan]]))
    with pytest.raises(ConfigError, match="rho"):
        estimate_irregularity(FBM, gamma=0.5, a_max=4.0, rho_grid=[0.5, np.nan],
                              a_grid=grid, pairs=pairs)
    for times in ([0.5, np.nan], [-0.1], [1.5]):
        with pytest.raises(ValueError):
            _phi_at_times(FBM, grid, times)
