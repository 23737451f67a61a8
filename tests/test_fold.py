"""Resonance-resolved fold tables against brute-force tuple enumeration."""

import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from modnls import _fold, _runtime, spectral
from modnls._fold import (FoldResult, Slot, fold, fold_dense, fold_fft,
                          map_phase_chunks)
from modnls.errors import ConfigError, NumericsError
from tests.conftest import record_phase_ffts


def brute_fold_1d(values, signs, N):
    """Dictionary {(q, n): sum of slot products} over all tuples.

    Slots carry their values verbatim; the sign only decides how the mode
    and its square enter the two constraints (conjugation is the
    caller's job in the library too).
    """
    table = {}
    modes = range(-N, N + 1)
    for tup in itertools.product(modes, repeat=len(values)):
        n = sum(sg * m for sg, m in zip(signs, tup))
        q = sum(sg * m * m for sg, m in zip(signs, tup))
        term = 1.0 + 0.0j
        for v, m in zip(values, tup):
            term *= v[m + N]
        table[(q, n)] = table.get((q, n), 0.0) + term
    return table


def test_fold_matches_brute_force():
    rng = np.random.default_rng(2)
    N = 2
    values = [rng.standard_normal(5) + 1j * rng.standard_normal(5)
              for _ in range(3)]
    signs = (1, -1, 1)
    slots = [Slot(v, sg) for v, sg in zip(values, signs)]
    res = fold_dense(slots, d=1)
    expected = brute_fold_1d(values, signs, N)
    q_vals = res.q_values
    for qi, q in enumerate(q_vals):
        for n in range(-res.N_out, res.N_out + 1):
            want = expected.get((q, n), 0.0)
            got = res.table[qi, n + res.N_out]
            assert got == pytest.approx(want, abs=1e-13), (q, n)
    covered = {q for q, _ in expected if abs(expected[(q, _)]) > 0}
    assert covered <= set(q_vals.tolist())


def _ragged_chunks(monkeypatch, slots, d, rows):
    """Set fold_fft's chunk to `rows` phases, which leaves a partial last chunk."""
    N = (slots[0].values.shape[0] - 1) // 2
    Q, P = _fold.fft_grid(len(slots), d, N)
    real = all(np.isrealobj(sl.values) for sl in slots)
    assert (Q // 4 + 1 if real else Q // 2) % rows != 0
    monkeypatch.setattr(spectral, "_PHASE_TASK_ENTRIES", rows * P ** d)


def _off_parity(res):
    """The entries of a fold table at q of the other parity than |n|^2."""
    sq = spectral._sq_norms(res.d, res.N_out)
    return res.table[(res.q_values.reshape((-1,) + (1,) * res.d) - sq) % 2 == 1]


# one_array: the same array object fills every slot; rows: phases per
# fold_fft chunk, None for the default chunk
@pytest.mark.parametrize("d,N,signs,one_array,rows", [
    pytest.param(1, 3, (1, -1, 1), False, None, id="1-3-signs0"),
    pytest.param(1, 2, (1, -1, 1, -1, 1), False, None, id="1-2-signs1"),
    pytest.param(2, 2, (1, -1, 1), False, None, id="2-2-signs2"),
    pytest.param(1, 3, (-1, -1, -1), False, None, id="1-3-signs3"),
    pytest.param(3, 1, (1, -1, 1), False, None, id="3-1-signs0"),
    pytest.param(2, 2, (1, -1, 1, -1, 1), True, None, id="2-2-one-array"),
    pytest.param(1, 3, (1, -1, 1), False, 3, id="1-3-ragged-chunk"),
])
def test_dense_and_fft_agree(d, N, signs, one_array, rows, monkeypatch):
    rng = np.random.default_rng(5)
    shape = (2 * N + 1,) * d
    values = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for _ in signs]
    if one_array:
        values = [values[0]] * len(signs)
    slots = [Slot(v, sg) for v, sg in zip(values, signs)]
    if rows:
        _ragged_chunks(monkeypatch, slots, d, rows)
    a = fold_dense(slots, d)
    b = fold_fft(slots, d)
    # every tuple's q has the parity of |n|^2, for real and complex values alike
    real = fold_dense([Slot(v.real, sg) for v, sg in zip(values, signs)], d)
    assert not _off_parity(a).any() and not _off_parity(real).any()
    assert a.q_min == b.q_min
    scale = np.abs(a.table).max()
    np.testing.assert_allclose(b.table, a.table, atol=1e-12 * max(1.0, scale))


def test_real_slots_give_real_tables(monkeypatch):
    # Q = 28, 50, 10, 28 and 28, so 8, 13, 3, 8 and 8 phases; the last two
    # cases put one array object in every slot, the last one with a partial
    # last chunk
    rng = np.random.default_rng(8)
    for d, N, one_array, rows in [(1, 3, False, None), (1, 4, False, None),
                                  (3, 1, False, None), (2, 2, True, None),
                                  (1, 3, True, 3)]:
        shape = (2 * N + 1,) * d
        values = [np.abs(rng.standard_normal(shape)) for _ in range(3)]
        if one_array:
            values = [values[0]] * 3
        slots = [Slot(v, sg) for v, sg in zip(values, (1, -1, 1))]
        with monkeypatch.context() as m:
            if rows:
                _ragged_chunks(m, slots, d, rows)
            dense = fold_dense(slots, d)
            fft = fold_fft(slots, d)
        assert not np.iscomplexobj(dense.table)
        assert not np.iscomplexobj(fft.table)
        np.testing.assert_allclose(fft.table, dense.table, atol=1e-12)


def test_one_real_array_is_transformed_once_per_phase_chunk(monkeypatch):
    # alternating_slots hands the same real array to the conjugate slots,
    # so fold_fft takes one inverse transform per chunk for all five slots:
    # one pass per axis, d = 2 passes per chunk
    v = np.abs(np.random.default_rng(4).standard_normal((5, 5)))
    slots = _fold.alternating_slots([v] * 5)
    assert all(sl.values is v for sl in slots)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return ifft(*args, **kwargs)

    ifft = spectral.ifft
    monkeypatch.setattr(spectral, "ifft", counted)
    Q, P = _fold.fft_grid(5, 2, 2)
    monkeypatch.setattr(spectral, "_PHASE_TASK_ENTRIES", 8 * P ** 2)
    res = fold_fft(slots, 2)
    chunks = -(-(Q // 4 + 1) // 8)
    assert len(calls) == 2 * chunks and chunks > 1
    dense = fold_dense(slots, 2)
    np.testing.assert_allclose(res.table, dense.table,
                               atol=1e-12 * np.abs(dense.table).max())


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_phase_chunks_do_not_depend_on_worker_count(complex_values, monkeypatch):
    # three-row chunks leave a ragged last chunk; with two workers the tasks
    # run on pool threads, each with one FFT worker, and every output is
    # bit for bit the serial one
    rng = np.random.default_rng(11)
    vals = [rng.standard_normal((5, 5)) for _ in range(3)]
    if complex_values:
        vals = [v + 1j * rng.standard_normal((5, 5)) for v in vals]
    slots = [Slot(v, sg) for v, sg in zip(vals, (1, -1, 1))]
    _ragged_chunks(monkeypatch, slots, 2, 3)
    log = record_phase_ffts(monkeypatch)
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    out = {}
    for n in (1, 2):
        _runtime.set_workers(n)
        log.clear()
        chunks = list(map_phase_chunks(slots, 2, lambda l, F: (l, F)))
        out[n] = chunks, fold_fft(slots, 2).table
        assert {w for _, w in log} == {1}
        on_pool = {t for t, _ in log} != {threading.get_ident()}
        assert on_pool == (n == 2)
    (serial, table1), (pooled, table2) = out[1], out[2]
    Q, _ = _fold.fft_grid(3, 2, 2)
    ls = np.concatenate([l for l, _ in serial])
    assert ls.tolist() == list(range(Q // 2 if complex_values else Q // 4 + 1))
    assert len(serial) == len(pooled) > 2
    for (l1, F1), (l2, F2) in zip(serial, pooled):
        assert np.array_equal(l1, l2) and np.array_equal(F1, F2)
    assert np.array_equal(table1, table2)


def test_zero_phase_spectrum_is_plain_convolution():
    rng = np.random.default_rng(3)
    vals = [rng.standard_normal(7) + 1j * rng.standard_normal(7) for _ in range(3)]
    slots = [Slot(v, sg) for v, sg in zip(vals, (1, -1, 1))]
    (l, F), = map_phase_chunks(slots, 1, lambda l, F: (l, F), n=1)
    assert l.tolist() == [0]
    oriented = [vals[0], vals[1][::-1], vals[2]]
    conv = np.convolve(np.convolve(oriented[0], oriented[1]), oriented[2])
    np.testing.assert_allclose(F[0], conv, atol=1e-12)


def random_fold(rng, d, N, complex_values):
    shape = (2 * N + 1,) * d
    slots = []
    for sg in (1, -1, 1):
        v = rng.standard_normal(shape)
        if complex_values:
            v = v + 1j * rng.standard_normal(shape)
        slots.append(Slot(v, sg))
    return fold(slots, d)


def omega_weight(rng, res, complex_values):
    """Random weight covering Omega = |n|^2 - q on the table, and its offset."""
    q_max = res.q_min + res.table.shape[0] - 1
    size = res.d * res.N_out ** 2 + q_max - res.q_min + 1
    w = rng.standard_normal(size)
    if complex_values:
        w = w + 1j * rng.standard_normal(size)
    return w, q_max


@pytest.mark.parametrize("d,complex_values", [(1, False), (1, True),
                                              (2, False), (2, True)])
def test_contract_matches_loop(d, complex_values):
    rng = np.random.default_rng(12)
    res = random_fold(rng, d, 2, complex_values)
    weight, offset = omega_weight(rng, res, complex_values)
    want = np.zeros(res.table.shape[1:], dtype=complex)
    for qi, q in enumerate(res.q_values):
        for idx in np.ndindex(*want.shape):
            n = np.array(idx) - res.N_out
            want[idx] += weight[int(n @ n) - q + offset] * res.table[(qi,) + idx]
    got = res.contract(weight, offset)
    assert np.iscomplexobj(got) == complex_values
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("d,N", [(1, 6), (2, 3)])
def test_contract_chunks_agree(d, N, monkeypatch):
    rng = np.random.default_rng(13)
    res = random_fold(rng, d, N, True)
    weight, offset = omega_weight(rng, res, True)
    one = res.contract(weight, offset)
    n_size = (2 * res.N_out + 1) ** d
    assert res.table.size <= _fold._CONTRACT_CHUNK_ENTRIES
    # two rows per chunk, with a ragged last chunk
    assert res.table.shape[0] % 2 == 1
    monkeypatch.setattr(_fold, "_CONTRACT_CHUNK_ENTRIES", 2 * n_size + 1)
    many = res.contract(weight, offset)
    np.testing.assert_allclose(many, one, rtol=1e-13,
                               atol=1e-13 * np.abs(one).max())


def test_single_slot_lattice_convention():
    v = np.arange(1.0, 6.0) + 1j  # modes -2..2
    plus = fold([Slot(v, 1)], 1)
    for n in range(-2, 3):
        qi = int(n * n - plus.q_min)
        assert plus.table[qi, n + 2] == pytest.approx(v[n + 2], abs=0)
    assert abs(plus.table).sum() == pytest.approx(np.abs(v).sum(), abs=1e-13)

    minus = fold([Slot(v, -1)], 1)
    for n in range(-2, 3):
        qi = int(-n * n - minus.q_min)
        assert minus.table[qi, n + 2] == pytest.approx(v[2 - n], abs=0)


def test_crop_spatial_center_crop():
    rng = np.random.default_rng(9)
    slots = [Slot(rng.standard_normal(5), sg) for sg in (1, -1, 1)]
    res = fold(slots, 1)
    cropped = res.crop_spatial(2)
    assert cropped.N_out == 2
    lo = res.N_out - 2
    np.testing.assert_array_equal(cropped.table, res.table[:, lo:lo + 5])
    assert cropped.q_min == res.q_min


def test_q_values_span():
    slots = [Slot(np.ones(5), sg) for sg in (1, -1, 1)]
    res = fold(slots, 1)
    np.testing.assert_array_equal(res.q_values,
                                  np.arange(res.q_min, res.q_min + res.table.shape[0]))


def test_budget_guards():
    big = np.ones(601)
    with pytest.raises(NumericsError):
        fold_dense([Slot(big, 1), Slot(big, -1), Slot(big, 1)], 1)
    mid = np.ones(301)
    with pytest.raises(NumericsError):
        fold_fft([Slot(mid, 1), Slot(mid, -1), Slot(mid, 1)], 1)


def test_slot_validation():
    with pytest.raises(ConfigError):
        Slot(np.ones(5), 2)
    with pytest.raises(ConfigError):
        fold([Slot(np.ones(5), 1), Slot(np.ones(7), -1)], 1)
    with pytest.raises(ConfigError):
        fold([Slot(np.ones((5, 5)), 1)], 1)
    with pytest.raises(ConfigError):
        fold([Slot(np.ones(4), 1)], 1)  # even side has no centre mode


@pytest.mark.parametrize("N,nnz,pick", [
    (16, (1089, 1, 1), "dense"),  # a full first slot costs one pass
    (7, (148, 36, 36), "dense"),  # the eq26 shells of blocks (4, 4, 2, 2)
    (16, (1089, 1089, 1089), "fft"),
])
def test_dispatch_prices_the_accumulator_before_each_slot(monkeypatch, N, nnz, pick):
    # fold_dense pays nnz_j times the accumulator built from slots 1..j-1
    d = 2
    slots = []
    for j, count in enumerate(nnz):
        vals = np.zeros((2 * N + 1,) * d)
        vals.ravel()[:count] = 1.0 + j
        slots.append(Slot(vals, 1 if j % 2 == 0 else -1))
    picked = []
    monkeypatch.setattr(_fold, "fold_dense", lambda s, d: picked.append("dense"))
    monkeypatch.setattr(_fold, "fold_fft", lambda s, d: picked.append("fft"))
    fold(slots, d)
    cost = sum(c * (j * d * N * N + 1) * (2 * j * N + 1) ** d for j, c in enumerate(nnz))
    assert picked == [pick]
    assert (cost <= spectral._SIZE_LIMITS["operation"] / 4) == (pick == "dense")


def test_dense_fold_refuses_over_budget_before_allocating():
    # three full d=2, N=20 slots cost about 2e9 operations; the refusal
    # comes from the cost model, before the first accumulator is built
    vals = np.ones((41, 41))
    slots = _fold.alternating_slots([vals] * 3)
    assert _fold._dense_cost(slots, 2) > spectral._SIZE_LIMITS["operation"]
    tracemalloc.start()
    try:
        with pytest.raises(NumericsError, match="operation budget"):
            fold_dense(slots, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
