"""Oscillatory integrals Phi_t(a), their tables, and irregularity estimation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modnls import phi as phi_module
from modnls.errors import ConfigError
from modnls.paths import SamplePath, make_fbm_path, make_linear_path
from modnls.phi import (
    IrregularityReport,
    _phi_at_times,
    _segments,
    build_phi_table,
    default_a_grid,
    default_pairs,
    estimate_irregularity,
    largest_bounded_rho,
    phi_increment,
    trend_slope,
)
from tests.conftest import gl_phase_integral

FBM = make_fbm_path(0.5, 1.0, 64, seed=3)


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


def _unit_segment(x):
    """(e^{ix} - 1)/(ix): the segment primitive with dt = 1, w0 = 0, dw = x."""
    re, im = _segments(1.0, 1.0, 0.0, np.array([x]))
    return complex(re[0], im[0])


def test_cis_ratio_against_taylor_and_direct():
    # (e^{ix} - 1) / (ix), both branches of the evaluation
    for x in (1e-9, -3e-6, 1e-4, 2e-3):
        terms = sum((1j * x) ** m / math.factorial(m + 1) for m in range(8))
        assert _unit_segment(x) == pytest.approx(terms, abs=1e-15)
    for x in (0.5, -3.7, 120.0):
        direct = (np.exp(1j * x) - 1) / (1j * x)
        assert _unit_segment(x) == pytest.approx(direct, abs=1e-14)
    assert _unit_segment(0.0) == pytest.approx(1.0, abs=0)


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
                         values=np.array([0.0, -1.3]), kind="file", offset=0.2)
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
    table = build_phi_table(path, mu_max=40)
    old = _phi_two_exponentials(path, np.arange(41), path.t_grid)
    np.testing.assert_allclose(table.values[:, 40:], old.T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("entries", [3 * 64, 5 * 64 + 17, 1])
def test_phi_at_times_chunks_agree(monkeypatch, entries):
    # 23 frequencies over 64 segments: rows of 3, 5 and 1, ragged last chunk
    a = np.linspace(-30.0, 30.0, 23)
    times = [0.5, 0.0, 1.0, 0.25 + 0.5 * STEP]
    whole = _phi_at_times(FBM, a, times)
    monkeypatch.setattr(phi_module, "_PHI_BLOCK_ENTRIES", entries)
    np.testing.assert_allclose(_phi_at_times(FBM, a, times), whole,
                               rtol=0, atol=1e-14)


def test_phi_at_times_working_set_is_bounded():
    # the irregularity shape: 1089 frequencies, 16384 segments, 151 times
    path = make_fbm_path(0.5, 1.0, 2 ** 14, seed=3)
    a = default_a_grid(64.0)
    times = np.unique(default_pairs(path).ravel())
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
    table = build_phi_table(FBM, mu_max=6)
    assert table.values.shape == (FBM.M + 1, 13)
    for i_s, i_t in ((0, 10), (3, 40), (20, 64)):
        inc = table.increment(i_s, i_t)
        for mu in range(-6, 7):
            direct = phi_increment(FBM, mu, FBM.t_grid[i_s], FBM.t_grid[i_t])
            assert inc[mu + 6] == pytest.approx(direct, abs=1e-13)


def test_table_index_of_time():
    table = build_phi_table(FBM, mu_max=2)
    assert table.index_of_time(FBM.t_grid[17]) == 17
    assert table.index_of_time(0.0) == 0
    with pytest.raises(KeyError):
        table.index_of_time(FBM.t_grid[17] + 0.3 * (FBM.t_grid[1] - FBM.t_grid[0]))


def test_default_a_grid_shape():
    grid = default_a_grid(16.0)
    assert grid[0] == 0.0
    assert grid.max() == 16.0
    assert np.all(np.diff(grid) > 0)
    assert np.all(np.isin(np.arange(17.0), grid))
    with pytest.raises(ConfigError):
        default_a_grid(0.0)


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
    for times in ([0.5, np.nan], [-0.1], [1.5]):
        with pytest.raises(ValueError):
            _phi_at_times(FBM, grid, times)
