"""Spectral states, norms, phase flows, and the truncated nonlinearity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modnls import _fold, spectral, young
from modnls.errors import ConfigError
from modnls.spectral import (
    SpectralState,
    _cube_modes,
    _phase_products,
    _sq_norms,
    apply_U,
    hs_norm,
    load_state_csv,
    nonlinearity,
    random_state,
    save_state_csv,
    unit_mode,
    zero_state,
)
from tests.conftest import (conj_state, direct_nonlinearity, padded_phase_products,
                            resonance_offset, savetxt_state_csv)


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


def _edge_state(d, N, seed):
    # a random state with zero modes and the values whose text is easiest to get wrong
    st_ = random_state(d, N, 0.5, seed=seed)
    flat = st_.coeffs.reshape(-1)
    flat[::3] = 0.0
    edges = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             1.0, -2.0, 0.1]
    flat[1:3 * len(edges):3] = [complex(e, -e) for e in edges]
    flat[2] = complex(0.0, -0.0)
    flat[4] = complex(-0.0, 1.0)
    return st_


@pytest.mark.parametrize("d,N", [(1, 12), (2, 5), (3, 8)])
def test_state_csv_is_the_savetxt_bytes(tmp_path, d, N):
    # the blocked writer against numpy's row-by-row savetxt; (3, 8) has 17^3 = 4913
    # modes, so its rows span two blocks
    for name, st_ in [("edge", _edge_state(d, N, 11)), ("dense", random_state(d, N, 1.0, 12)),
                      ("zero", zero_state(d, N))]:
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_oracle.csv"
        save_state_csv(st_, got)
        savetxt_state_csv(st_, want)
        assert got.read_bytes() == want.read_bytes()
        assert got.with_suffix(".json").read_text() == f'{{"d": {d}, "N": {N}}}\n'
    assert (tmp_path / "zero.csv").read_text().count("\n") == 1  # the header alone


def test_state_csv_literal_text(tmp_path):
    # pinned against a literal, so the format cannot drift along with its oracle
    st_ = SpectralState(1, 2, [0.1, 0.0, complex(-0.0, 3.0), complex(-2.0, -0.0),
                              complex(1 / 3, 5e-324)])
    fn = tmp_path / "tiny.csv"
    save_state_csv(st_, fn)
    assert fn.read_text() == ("n_1,re,im\n"
                              "-2,0.10000000000000001,0\n"
                              "0,-0,3\n"
                              "1,-2,-0\n"
                              "2,0.33333333333333331,4.9406564584124654e-324\n")


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


def _walker_case(rng, d, N, m, rows, complex_values, shared):
    """Sources for m alternating conjugate slots and rows phase rows
    e^{-i theta |n|^2} on the (2N+1)^d cube."""
    shape = (2 * N + 1,) * d
    srcs = [rng.standard_normal(shape) for _ in range(m)]
    if complex_values:
        srcs = [f + 1j * rng.standard_normal(shape) for f in srcs]
    srcs = [srcs[0]] * m if shared else srcs
    theta = rng.uniform(0, 2 * np.pi, rows)
    phases = np.exp(-1j * np.multiply.outer(theta, _sq_norms(d, N)))
    return srcs, [j % 2 == 1 for j in range(m)], phases


@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_phase_products_keep_the_bits_of_one_padded_ifftn(d, m):
    # the kernel's slice crop on its P, the fold's np.ix_ crop on its own
    N = 2
    kernel_P = young._phase_grid(d, (m - 1) // 2, N)[2]
    fold_P = _fold.fft_grid(m, d, N)[1]
    idx = (np.arange(-m * N, m * N + 1) + N) % fold_P
    crops = [(kernel_P, (slice(None),) + (slice(0, 2 * N + 1),) * d),
             (fold_P, (slice(None),) + np.ix_(*[idx] * d))]
    rng = np.random.default_rng(100 * d + m)
    for rows in (1, 7):
        for complex_values in (False, True):
            for shared in (False, True):
                case = _walker_case(rng, d, N, m, rows, complex_values, shared)
                for P, crop in crops:
                    got = _phase_products(*case, P, crop)
                    assert np.array_equal(got, padded_phase_products(*case, P, crop))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_inverse_pass_skips_the_padding_lines(d, monkeypatch):
    # the pass on axis a sees P points on the axes before it and the
    # 2N + 1 of the source cube on a and every axis after it
    N, m, rows = 3, 3, 4
    P = young._phase_grid(d, 1, N)[2]
    passes = []

    def spied(x, n=None, axis=-1, **kwargs):
        passes.append((x.shape, axis))
        return ifft(x, n=n, axis=axis, **kwargs)

    ifft = spectral.ifft
    monkeypatch.setattr(spectral, "ifft", spied)
    srcs, conj, phases = _walker_case(np.random.default_rng(d), d, N, m, rows, True, False)
    crop = (slice(None),) + (slice(0, 2 * N + 1),) * d
    _phase_products(srcs, conj, phases, P, crop)
    expect = [((rows,) + (P,) * (a - 1) + (2 * N + 1,) * (d + 1 - a), a)
              for a in range(1, d + 1)]
    assert passes == expect * m


def test_one_phase_chunk_holds_three_chunk_arrays():
    # eq21's shape: three alternating slots on one real array, 13 rows of
    # P^2 = 98^2 entries per chunk, cropped by the fold
    d, N, m = 2, 16, 3
    P = _fold.fft_grid(m, d, N)[1]
    rows = spectral._PHASE_TASK_ENTRIES // P ** d
    assert (P, rows) == (98, 13)
    srcs, conj, phases = _walker_case(np.random.default_rng(0), d, N, m, rows, False, True)
    idx = (np.arange(-m * N, m * N + 1) + N) % P
    crop = (slice(None),) + np.ix_(*[idx] * d)
    tracemalloc.start()
    try:
        _phase_products(srcs, conj, phases, P, crop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * rows * P ** d * 16
