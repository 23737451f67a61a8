"""Spectral states, norms, phase flows, and the truncated nonlinearity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modnls.errors import ConfigError
from modnls.spectral import (
    SpectralState,
    _cube_modes,
    apply_U,
    hs_norm,
    load_state_csv,
    nonlinearity,
    random_state,
    save_state_csv,
    unit_mode,
    zero_state,
)
from tests.conftest import conj_state, direct_nonlinearity, resonance_offset


def physical_nonlinearity(factors, k):
    """Aliasing-free pointwise-product oracle on a padded Fourier grid."""
    d, N = factors[0].d, factors[0].N
    P = 2 * (2 * k + 1) * N + 1
    us = []
    for j, st_ in enumerate(factors):
        spec = np.zeros((P,) * d, dtype=complex)
        idx = np.ix_(*[np.arange(-N, N + 1) % P] * d)
        spec[idx] = st_.coeffs
        u = np.fft.ifftn(spec) * P ** d
        us.append(u if j % 2 == 0 else np.conj(u))
    prod = np.prod(us, axis=0)
    chat = np.fft.fftn(prod) / P ** d
    out = chat[np.ix_(*[np.arange(-N, N + 1) % P] * d)]
    return SpectralState(d, N, out)


def test_zero_and_unit_mode():
    st_ = unit_mode(1, 3, 2, amplitude=1.5j)
    assert st_[2] == 1.5j
    assert st_[0] == 0.0
    assert hs_norm(zero_state(2, 2), 1.0) == 0.0
    with pytest.raises(ConfigError):
        unit_mode(1, 3, 5)


def test_mode_grid_layout():
    modes = _cube_modes(2, -2, 2)
    assert modes.shape == (25, 2)
    grid = modes.reshape(5, 5, 2)
    np.testing.assert_array_equal(grid[2, 2], [0, 0])
    np.testing.assert_array_equal(grid[0, 4], [-2, 2])
    assert _cube_modes(2, 1, 0).shape == (0, 2)


@pytest.mark.parametrize("n,s", [(0, 1.0), (2, 0.5), (-3, 2.0)])
def test_hs_norm_unit_mode(n, s):
    st_ = unit_mode(1, 4, n, amplitude=2.0)
    expected = 2.0 * (1 + n * n) ** (s / 2)
    assert hs_norm(st_, s) == pytest.approx(expected, rel=1e-14)


@given(scale=st.floats(min_value=0.0, max_value=10.0),
       s=st.floats(min_value=-1.0, max_value=2.0))
def test_hs_norm_homogeneous(scale, s):
    st_ = random_state(1, 4, 0.5, seed=7)
    scaled = SpectralState(1, 4, scale * st_.coeffs)
    assert hs_norm(scaled, s) == pytest.approx(scale * hs_norm(st_, s), rel=1e-12)


def test_apply_U_unitary_and_composes():
    st_ = random_state(2, 3, 1.0, seed=1)
    w1, w2 = 0.37, -1.2
    fwd = apply_U(st_, w1)
    assert hs_norm(fwd, 0.0) == pytest.approx(hs_norm(st_, 0.0), rel=1e-14)
    back = apply_U(fwd, w1, direction="inverse")
    np.testing.assert_allclose(back.coeffs, st_.coeffs, atol=1e-15)
    once = apply_U(apply_U(st_, w1), w2)
    both = apply_U(st_, w1 + w2)
    np.testing.assert_allclose(once.coeffs, both.coeffs, atol=1e-15)
    np.testing.assert_allclose(apply_U(st_, 0.0).coeffs, st_.coeffs, atol=0)


def test_apply_U_phase_convention():
    st_ = unit_mode(1, 2, 2)
    out = apply_U(st_, 0.5)
    assert out[2] == pytest.approx(np.exp(-1j * 4 * 0.5), abs=1e-15)


def test_conj_state_reflects_modes():
    st_ = unit_mode(1, 3, 2, amplitude=1 + 2j)
    c = conj_state(st_)
    assert c[-2] == 1 - 2j
    assert c[2] == 0.0
    twice = conj_state(conj_state(random_state(2, 2, 0.5, seed=3)))
    np.testing.assert_allclose(twice.coeffs,
                               random_state(2, 2, 0.5, seed=3).coeffs, atol=0)


def test_random_state_reproducible_and_scaled():
    a = random_state(1, 8, 1.0, seed=11)
    b = random_state(1, 8, 1.0, seed=11)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    doubled = random_state(1, 8, 1.0, seed=11, scale=2.0)
    np.testing.assert_allclose(doubled.coeffs, 2 * a.coeffs, atol=0)
    smooth = random_state(1, 8, 1.0, seed=11, decay=6.0)
    assert abs(smooth[8]) < abs(a[8])


@pytest.mark.parametrize("d,N,k", [(1, 3, 1), (1, 2, 2), (2, 2, 1)])
def test_nonlinearity_against_physical_grid(d, N, k):
    rng = np.random.default_rng(d * 10 + k)
    factors = [random_state(d, N, 0.5, seed=rng) for _ in range(2 * k + 1)]
    got = nonlinearity(factors, k)
    oracle = physical_nonlinearity(factors, k)
    np.testing.assert_allclose(got.coeffs, oracle.coeffs, atol=1e-12)


def test_nonlinearity_methods_agree():
    factors = [random_state(1, 4, 0.5, seed=i) for i in range(3)]
    direct = direct_nonlinearity(factors, 1)
    fft = nonlinearity(factors, 1)
    np.testing.assert_allclose(direct.coeffs, fft.coeffs, atol=1e-13)


def test_nonlinearity_validation():
    factors = [random_state(1, 4, 0.5, seed=i) for i in range(3)]
    with pytest.raises(ConfigError):
        nonlinearity(factors, k=2)
    with pytest.raises(ConfigError):
        nonlinearity(factors[:2])
    with pytest.raises(TypeError):  # the fft path is the only one
        nonlinearity(factors, 1, method="magic")


def test_resonance_offset_values():
    assert resonance_offset(1, [(1,), (1,), (1,)], k=1) == 0
    assert resonance_offset(1, [(2,), (1,), (0,)], k=1) == -2
    assert resonance_offset((1, 1), [(1, 0), (0, -1), (0, 0)], k=1) == 2 - 1 + 1 - 0
    with pytest.raises(ConfigError):
        resonance_offset(0, [(1,), (1,)], k=1)


def test_state_csv_round_trip(tmp_path):
    st_ = random_state(2, 3, 0.5, seed=4)
    st_.coeffs[0, 0] = 0.0  # exercise sparse omission
    fn = tmp_path / "state.csv"
    save_state_csv(st_, fn)
    back = load_state_csv(fn)
    assert back.d == 2 and back.N == 3
    np.testing.assert_allclose(back.coeffs, st_.coeffs, atol=0)

    zfn = tmp_path / "zero.csv"
    save_state_csv(zero_state(1, 2), zfn)
    zback = load_state_csv(zfn)
    np.testing.assert_array_equal(zback.coeffs, 0.0)


def test_state_csv_missing_sidecar(tmp_path):
    fn = tmp_path / "lonely.csv"
    fn.write_text("n_1,re,im\n0,1,0\n")
    with pytest.raises(ConfigError):
        load_state_csv(fn)


@pytest.mark.parametrize("row", ["0,nan,0", "1,0.5,inf"])
def test_state_csv_rejects_non_finite(tmp_path, row):
    fn = tmp_path / "bad.csv"
    fn.write_text(f"n_1,re,im\n{row}\n")
    fn.with_suffix(".json").write_text('{"d": 1, "N": 2}\n')
    with pytest.raises(ConfigError, match="non-finite"):
        load_state_csv(fn)


def test_mode_errors_print_plain_ints():
    with pytest.raises(ConfigError) as exc:
        unit_mode(1, 4, np.array([9]))
    assert str(exc.value) == "mode (9,) outside |n_i| <= 4"
    with pytest.raises(KeyError) as exc:
        zero_state(2, 1)[np.array([0, -3])]
    assert "mode (0, -3) outside |n_i| <= 1" in str(exc.value)
