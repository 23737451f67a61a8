"""Resonance sets A(mu), the counting identity, and estimate ratio probes."""

import csv
import itertools
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modnls import _fold, _runtime, resonance, spectral
from modnls._fold import alternating_slots, fold
from modnls.errors import ConfigError, NumericsError
from modnls.paths import make_linear_path
from modnls.resonance import (
    EstimateReport,
    _block_lhs,
    _block_mus,
    _block_rhs,
    _checked_class,
    _dyadic_setup,
    _eq21_weight,
    _shell_witnesses,
    dyadic_block_ratio,
    enumerate_A,
    eq21_ratio,
    eq26_mu_sweep,
    estimate_ratio_eq21,
    verify_counting_partition,
)
from modnls.young import YoungKernelConfig, x_norm_estimate
from tests.conftest import record_phase_ffts


def brute_tuples(bounds, d, k):
    """All (2k+2)-tuples of modes with each slot in its box, as flat tuples."""
    slots = []
    for lo, hi in bounds:
        rng = range(lo, hi + 1)
        slots.append([np.array(m) for m in itertools.product(rng, repeat=d)])
    return itertools.product(*slots)


def four_slot_sums(lists, d):
    """Alternating sum and square sum over the broadcast four-slot product.

    No slot is eliminated, so this shares no code with _zero_sum_scan.
    """
    lin = np.zeros((1,) * 4 + (d,), dtype=np.int64)
    quad = np.zeros((1,) * 4, dtype=np.int64)
    for i, f in enumerate(lists):
        view = [1] * 4
        view[i] = f.shape[0]
        lin = lin + (-1) ** i * f.reshape(view + [d])
        quad = quad + (-1) ** i * (f ** 2).sum(axis=1).reshape(view)
    return lin, quad


def cube_modes(lo, hi, d):
    """(S, d) array of the modes in [lo, hi]^d."""
    axes = np.meshgrid(*([np.arange(lo, hi + 1)] * d), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, d)


def alt_sum_stats(tup):
    lin = sum((-1) ** i * m for i, m in enumerate(tup))
    quad = sum((-1) ** i * (m * m).sum() for i, m in enumerate(tup))
    return lin, int(quad)


def test_resonance_tuple_membership_recheck():
    good = _checked_class(np.array([[[1], [1], [0], [0]]]), 0)
    assert good.shape == (1, 4, 1)  # one tuple of 2k + 2 = 4 slots in d = 1
    with pytest.raises(ConfigError, match="alternating zero-sum"):
        _checked_class(np.array([[[1], [0], [0], [0]]]), 0)
    with pytest.raises(ConfigError, match="alternating square-sum"):
        _checked_class(np.array([[[1], [1], [0], [0]]]), 2)


def test_enumerate_A_reference_example():
    tuples = enumerate_A(0, (0, 1), d=1, k=1)
    assert len(tuples) == 6
    seen = {tuple(t.ravel()) for t in tuples}
    assert seen == {(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1),
                    (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 1)}
    for t in tuples:
        lin, quad = alt_sum_stats(list(t))
        assert np.all(lin == 0) and quad == 0


def test_enumerate_A_degenerate_boxes():
    only_zero = enumerate_A(0, (0, 0), d=2, k=1)
    assert len(only_zero) == 1
    assert len(enumerate_A(2, (0, 0), d=2, k=1)) == 0
    assert len(enumerate_A(1, (-1, 1), d=1, k=1)) == 0  # odd mu is unattainable
    assert len(enumerate_A(100, (-1, 1), d=1, k=1)) == 0
    assert len(enumerate_A(0, (1, 0), d=1, k=1)) == 0  # empty slot range


def test_enumerate_A_sign_flip_bijection():
    for mu in (0, 2, 4):
        tuples = enumerate_A(mu, (-2, 2), d=1, k=1)
        seen = {tuple(t.ravel()) for t in tuples}
        flipped = {tuple(-np.asarray(m)) for m in seen}
        assert seen == flipped


@given(
    lo=st.integers(min_value=-2, max_value=0),
    hi=st.integers(min_value=0, max_value=2),
    mu=st.integers(min_value=-4, max_value=4).map(lambda v: 2 * v),
    d=st.sampled_from([1, 2]),
)
def test_enumerate_A_matches_brute_force(lo, hi, mu, d):
    got = enumerate_A(mu, (lo, hi), d=d, k=1)
    for t in got:
        lin, quad = alt_sum_stats(list(t))
        assert np.all(lin == 0) and quad == mu
        assert np.all(t >= lo) and np.all(t <= hi)
    lin, quad = four_slot_sums([cube_modes(lo, hi, d)] * 4, d)
    expected = int(np.count_nonzero(~np.any(lin, axis=-1) & (quad == mu)))
    assert len(got) == expected


def test_enumeration_caps():
    # the candidate budget is the only guard: 29^5 > 2e7 free-slot
    # candidates at (1, 2) and 23^8 at (2, 1) are refused before scanning
    with pytest.raises(NumericsError, match="enumeration budget"):
        enumerate_A(0, (-14, 14), d=1, k=2)
    with pytest.raises(NumericsError, match="enumeration budget"):
        verify_counting_partition((-11, 11), d=2, k=1)


def test_counting_partition_small_box():
    report = verify_counting_partition((-1, 1), d=1, k=1)
    zero_sum = 0
    per_mu = {}
    for tup in brute_tuples([(-1, 1)] * 4, 1, 1):
        lin, quad = alt_sum_stats(tup)
        if np.all(lin == 0):
            zero_sum += 1
            per_mu[quad] = per_mu.get(quad, 0) + 1
    assert report.zero_sum_count == zero_sum
    assert report.total_tuples == 3 ** 4
    assert dict(zip(report.mu_values, report.mu_counts)) == per_mu
    assert report.max_membership == 1
    assert report.cross_check_ok
    assert report.identity_holds


def test_counting_membership_fails_on_shared_tuple(monkeypatch):
    # the second checked class returns the first class's first tuple in
    # place of its own, so every per-class count still agrees
    real = resonance.enumerate_A
    seen = []

    def shared(mu, *args, **kwargs):
        found = real(mu, *args, **kwargs)
        seen.append(found[:1])
        return np.concatenate([seen[0], found[1:]]) if len(seen) == 2 else found

    monkeypatch.setattr(resonance, "enumerate_A", shared)
    report = verify_counting_partition((-1, 1), d=1, k=1)
    assert report.cross_check_ok
    assert report.max_membership == 2
    assert not report.identity_holds


def test_counting_partition_d2_and_empty():
    report = verify_counting_partition((-1, 1), d=2, k=1)
    assert report.identity_holds
    assert sum(report.mu_counts) == report.zero_sum_count

    empty = verify_counting_partition((1, 0), d=1, k=1)
    assert empty.total_tuples == 0
    assert empty.zero_sum_count == 0
    assert len(empty.mu_counts) == 0
    assert empty.identity_holds


def test_counting_report_json_keys():
    report = verify_counting_partition((0, 1), d=1, k=1)
    payload = report.to_json_dict()
    for key in ("d", "k", "bounds", "total_tuples", "zero_sum_count",
                "mu_values", "mu_counts", "max_membership",
                "cross_checked", "cross_check_ok", "identity_holds"):
        assert key in payload


@pytest.mark.parametrize("box,d,k", [(2, 2, 1), (4, 1, 1), (2, 1, 2)])
def test_resonance_classes_are_even(box, d, k):
    # a zero-sum tuple has mu = sum_j zeta_j |n_j|^2 = sum_i sum_j zeta_j n_ji = 0
    # (mod 2), as m^2 = m and -m = m (mod 2); the fold's half phase grid rests on it
    report = verify_counting_partition(box, d, k)
    assert report.mu_values.size > 1 and not (report.mu_values % 2).any()
    # the kernel's offsets Omega: the scan's mu with the output mode as slot 0
    frees, _ = resonance._priced_modes((-box, box), 2 * k + 1, d)
    omega = np.concatenate([mu for *_, mu in resonance._zero_sum_scan(frees, d, (-box, box))])
    assert omega.size and not (omega % 2).any()


def delta0(d, N):
    arr = np.zeros((2 * N + 1,) * d)
    arr[(N,) * d] = 1.0
    return arr


def test_eq21_ratio_delta_example():
    psis = [delta0(2, 2) for _ in range(3)]
    lhs, rhs, ratio = eq21_ratio(psis, d=2, k=1, rho=1.0, s=0.3,
                                 s_prime=0.0, q=1)
    assert (lhs, rhs, ratio) == (1.0, 1.0, 1.0)


def test_eq21_ratio_matches_weight_lattice():
    # the (q, n) weight lattice and einsum that the contraction replaced
    rng = np.random.default_rng(4)
    d, k, N, rho = 2, 1, 4, 1.0
    psis = [np.abs(rng.standard_normal((2 * N + 1,) * d)) for _ in range(3)]
    lhs, rhs, ratio = eq21_ratio(psis, d, k, rho, s=0.3, s_prime=0.2, q=2)

    res = fold(alternating_slots(psis), d)
    nsq_out = np.add.outer(*([np.arange(-3 * N, 3 * N + 1) ** 2] * 2))
    qv = np.arange(-k * d * N * N, (k + 1) * d * N * N + 1)
    assert (qv[0], qv.size) == (res.q_min, res.table.shape[0])
    omega = nsq_out[None, ...] - qv.reshape(-1, 1, 1)
    lattice = (1.0 + omega.astype(float) ** 2) ** (-rho / 2.0)
    Q = qv.size
    t_rho = np.einsum("qa,qa->a", lattice.reshape(Q, -1),
                      res.table.reshape(Q, -1)).reshape(nsq_out.shape)
    np.testing.assert_allclose(res.contract(*_eq21_weight(d, k, N, rho)),
                               t_rho, rtol=1e-13, atol=0)
    lhs_old = float(np.sqrt(np.sum((1.0 + nsq_out) ** 0.2 * t_rho ** 2)))
    assert lhs == pytest.approx(lhs_old, rel=1e-13)
    assert ratio == pytest.approx(lhs_old / rhs, rel=1e-13)


def test_eq21_ratio_validation():
    psis = [delta0(2, 2) for _ in range(3)]
    neg = [p.copy() for p in psis]
    neg[0][0, 0] = -1.0
    with pytest.raises(ConfigError):
        eq21_ratio(neg, d=2, k=1, rho=1.0, s=0.3, s_prime=0.0, q=1)
    with pytest.raises(ConfigError):
        eq21_ratio(psis[:2], d=2, k=1, rho=1.0, s=0.3, s_prime=0.0, q=1)
    zero = [np.zeros((5, 5)) for _ in range(3)]
    with pytest.raises(ConfigError):
        eq21_ratio(zero, d=2, k=1, rho=1.0, s=0.3, s_prime=0.0, q=1)


def test_eq21_large_rho_dominated_by_resonant_stratum():
    rng = np.random.default_rng(0)
    d, k, N = 2, 1, 2
    psis = [np.abs(rng.standard_normal((5, 5))) for _ in range(3)]
    lhs_big, _, _ = eq21_ratio(psis, d=d, k=k, rho=200.0, s=0.3,
                               s_prime=0.0, q=1)

    res = fold(alternating_slots(psis), d)
    mN = res.N_out
    grids = np.meshgrid(*([np.arange(-mN, mN + 1) ** 2] * d), indexing="ij")
    nsq = sum(grids)
    qidx = nsq - res.q_min
    Q = res.table.shape[0]
    cols = np.flatnonzero(((qidx >= 0) & (qidx < Q)).ravel())
    stratum = np.zeros(nsq.size)
    stratum[cols] = res.table.reshape(Q, -1)[qidx.ravel()[cols], cols]
    weight = (1.0 + nsq.ravel()) ** 0.0
    lhs_res = float(np.sqrt((weight * stratum ** 2).sum()))
    assert lhs_big == pytest.approx(lhs_res, rel=1e-9)


@pytest.mark.parametrize("shape,d,match", [
    ((5,), 2, "share dimension and cutoff"),
    ((5, 5), 1, "share dimension and cutoff"),
    ((4, 4), 2, "centered cube with odd side"),
])
def test_eq21_ratio_shape_validation(shape, d, match):
    psis = [np.ones(shape) for _ in range(3)]
    with pytest.raises(ConfigError, match=match):
        eq21_ratio(psis, d=d, k=1, rho=1.0, s=0.6, s_prime=0.0, q=1)


def _eq21_profiles(rng, d, N, m, nnz, identical):
    """m nonnegative profiles; with nnz set, every slot but a distinct first
    one keeps nnz random modes, so the dense oracle stays within budget."""
    shape = (2 * N + 1,) * d
    vals = []
    for j in range(1 if identical else m):
        v = np.abs(rng.standard_normal(shape))
        if nnz is not None and (identical or j > 0):
            v.ravel()[rng.permutation(v.size)[nnz:]] = 0.0
        vals.append(v)
    return vals * m if identical else vals


# (d, k, N) -> Q: (2,1,16) 1540, (2,1,8) 392, (3,1,2) 40, (1,2,6) 192;
# rows: phases per chunk, set to leave a partial last chunk
@pytest.mark.parametrize("d,k,N,nnz,identical,rows", [
    pytest.param(2, 1, 16, 6, False, None, id="2-1-16"),
    pytest.param(2, 1, 16, 6, True, None, id="2-1-16-one-array"),
    pytest.param(2, 1, 8, 30, False, None, id="2-1-8"),
    pytest.param(2, 1, 8, 30, True, 10, id="2-1-8-one-array-ragged-chunk"),
    pytest.param(3, 1, 2, None, False, None, id="3-1-2"),
    pytest.param(3, 1, 2, None, True, 4, id="3-1-2-one-array-ragged-chunk"),
    pytest.param(1, 2, 6, None, False, 20, id="1-2-6-ragged-chunk"),
    pytest.param(1, 2, 6, None, True, None, id="1-2-6-one-array"),
])
def test_eq21_phase_matches_dense_fold(d, k, N, nnz, identical, rows, monkeypatch):
    rho = 0.7
    psis = _eq21_profiles(np.random.default_rng(21), d, N, 2 * k + 1, nnz, identical)
    slots = alternating_slots(psis)
    Q, P = _fold.fft_grid(2 * k + 1, d, N)
    if rows:
        assert (Q // 4 + 1) % rows != 0
        monkeypatch.setattr(spectral, "_PHASE_TASK_ENTRIES", rows * P ** d)
    want = _fold.fold_dense(slots, d).contract(*_eq21_weight(d, k, N, rho))
    got = resonance._eq21_phase(slots, d, *resonance._eq21_kernel(d, k, N, rho))
    assert got.shape == want.shape and not np.iscomplexobj(got)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_eq21_phase_branch_is_lean(monkeypatch):
    # (2, 1, 16): the full-support candidates take the phase branch, which
    # never builds the (q, n) table, and K is built once per estimate; by
    # parity it walks l <= Q/4, and K holds those rows only
    def no_table(slots, d):
        raise AssertionError("fold_fft called")

    weights = []

    def counted(*args):
        weights.append(args)
        return _eq21_weight(*args)

    monkeypatch.setattr(_fold, "fold_fft", no_table)
    monkeypatch.setattr(resonance, "_eq21_weight", counted)
    rep = estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=16, trials=4, seed=3)
    assert rep.trials == 4 and rep.ratio > 0
    assert len(weights) == 1
    Q, _ = _fold.fft_grid(3, 2, 16)
    assert resonance._eq21_kernel(2, 1, 16, 1.0)[0].shape[0] == Q // 4 + 1
    rows = []
    products = spectral._phase_products

    def counted_rows(sources, conj, phases, P, crop):
        rows.append(len(phases))
        return products(sources, conj, phases, P, crop)

    monkeypatch.setattr(spectral, "_phase_products", counted_rows)
    psis = [np.ones((33, 33))] * 3
    # the pool's tasks hold one chunk each; the bound is the serial one
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    for workers in (1, 2):
        _runtime.set_workers(workers)
        rows.clear()
        tracemalloc.start()
        try:
            eq21_ratio(psis, d=2, k=1, rho=1.0, s=0.3, s_prime=0.0, q=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6, workers
        assert sum(rows) == Q // 4 + 1, workers


def test_eq21_and_eq27_do_not_depend_on_worker_count(monkeypatch):
    # (2, 1, 8) in ten-phase chunks, the last one ragged; the eq27 lhs
    # is one chunk, which runs in the calling thread
    d, k, N, rho = 2, 1, 8, 0.7
    slots = alternating_slots(_eq21_profiles(np.random.default_rng(5), d, N, 3,
                                             None, False))
    Q, P = _fold.fft_grid(3, d, N)
    assert (Q // 4 + 1) % 10 != 0
    monkeypatch.setattr(spectral, "_PHASE_TASK_ENTRIES", 10 * P ** d)
    kernel = resonance._eq21_kernel(d, k, N, rho)
    _, Bmax, nsq, masks = _dyadic_setup((2, 2, 1, 1), 2, 1)
    rng = np.random.default_rng(9)
    shells = [resonance._shell_profile(rng, m) for m in masks]
    log = record_phase_ffts(monkeypatch)
    monkeypatch.setattr(_runtime, "_workers", _runtime.get_workers())
    out = []
    for workers in (1, 2):
        _runtime.set_workers(workers)
        log.clear()
        out.append((resonance._eq21_phase(slots, d, *kernel),
                    _block_lhs(shells, nsq, Bmax, 2, 1, None)))
        assert {w for _, w in log} == {1}
    (t1, eq27_1), (t2, eq27_2) = out
    assert np.array_equal(t1, t2)
    assert eq27_1 == eq27_2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_profiles_rejected(bad):
    p = np.ones((5, 5))
    p[2, 3] = bad
    with pytest.raises(ConfigError, match="finite"):
        eq21_ratio([p] * 3, 2, 1, 1.0, 0.3, 0.0, 1)


def test_estimate_ratio_eq21_guards():
    with pytest.raises(ConfigError):
        estimate_ratio_eq21(1, 1, 1.0, 0.6, 0.0, 1, N=3, trials=2, seed=0)
    with pytest.raises(ConfigError):
        estimate_ratio_eq21(2, 1, 1.5, 0.3, 0.0, 1, N=3, trials=2, seed=0)
    with pytest.raises(ConfigError):
        estimate_ratio_eq21(2, 1, 1.0, 0.0, 0.0, 1, N=3, trials=2, seed=0)
    with pytest.raises(ConfigError):
        estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.4, 1, N=3, trials=2, seed=0)
    with pytest.raises(ConfigError):
        estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 4, N=3, trials=2, seed=0)


@pytest.mark.parametrize("q", [0, 4, -1, 1.5])
def test_eq21_ratio_refuses_q_outside_the_slots(q):
    # unchecked, q = 0 would read psis[-1] as the s' slot and q = 4 index past the end
    p = np.ones((9, 9))
    with pytest.raises(ConfigError, match="1 <= q <= 3"):
        eq21_ratio([p] * 3, 2, 1, 1.0, 0.3, 0.0, q)


@pytest.mark.parametrize("probe", [
    lambda: enumerate_A(0, 10 ** 6, d=2, k=1),
    lambda: verify_counting_partition(10 ** 6, d=2, k=1),
    lambda: dyadic_block_ratio("eq27", (2 ** 40, 4, 2, 2), None, 2, 1, 0.1, 1, 0),
    lambda: eq26_mu_sweep((2 ** 40, 4, 2, 2), 2, 1, 0.1, trials=1, seed=0),
], ids=["enumerate_A", "counting", "dyadic", "eq26-sweep"])
def test_size_refusals_come_before_allocation(probe):
    # mode lists of 4e12 entries, or a dyadic cube of 1.9e25, are priced
    # from their bounds and refused before anything that size is built
    tracemalloc.start()
    try:
        with pytest.raises(NumericsError, match="(enumeration|memory) budget"):
            probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_estimate_ratio_eq21_deterministic_report():
    a = estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=3, trials=4, seed=8)
    b = estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=3, trials=4, seed=8)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.estimate_id == "eq21"
    assert a.trials == 4
    assert a.max_ratio_over_trials == a.ratio == pytest.approx(a.lhs / a.rhs)
    for key in ("d", "k", "rho", "s", "s_prime", "q", "N"):
        assert key in a.parameters


def test_ratio_growth_study_rows_match_the_estimate(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "ratio_growth_study.py"
    out = tmp_path / "growth.csv"
    monkeypatch.setattr(sys, "argv", [str(script), "--sizes", "2,4", "--trials", "3",
                                      "--out", str(out)])
    runpy.run_path(str(script), run_name="__main__")
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["N"]) for row in rows] == [2, 4]
    for row in rows:
        rep = estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=int(row["N"]), trials=3,
                                  seed=0)
        assert float(row["ratio"]) == rep.max_ratio_over_trials
    assert rows[0]["growth"] == ""
    assert float(rows[1]["growth"]) == pytest.approx(
        float(rows[1]["ratio"]) / float(rows[0]["ratio"]), rel=1e-15)


@pytest.mark.parametrize("script,args,header", [
    ("irregularity_study.py", ["--hurst", "0.5", "--seeds", "1", "--M", "256"],
     ["H", "seed", "rho_max", "predicted"]),
    ("sewing_rate_study.py", ["--lams", "0.5", "--M", "64"],
     ["lam", "fitted_rate", "predicted_floor"]),
], ids=["irregularity", "sewing-rate"])
def test_study_scripts_write_one_finite_row(tmp_path, monkeypatch, script, args, header):
    # a smoke run at the smallest size: a library change that breaks a
    # study script fails here
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    out = tmp_path / "study.csv"
    monkeypatch.setattr(sys, "argv", [str(path), *args, "--out", str(out)])
    runpy.run_path(str(path), run_name="__main__")
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) == 2
    assert all(np.isfinite(float(v)) for v in rows[1])


def test_sewing_rate_study_runs_its_default_lambdas(tmp_path, monkeypatch):
    # lambda 0.3 lies below 1 - gamma: the script clamps the solver's lambda
    # and still writes a row for each default lambda
    path = Path(__file__).resolve().parents[1] / "scripts" / "sewing_rate_study.py"
    out = tmp_path / "study.csv"
    monkeypatch.setattr(sys, "argv", [str(path), "--M", "64", "--out", str(out)])
    runpy.run_path(str(path), run_name="__main__")
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["lam"]) for row in rows] == [0.3, 0.5, 0.7, 0.9]
    assert all(np.isfinite(float(row["fitted_rate"])) for row in rows)


def test_estimate_report_json_keys():
    rep = EstimateReport("eq21", {"d": 2}, 1.0, 2.0, 0.5, 3, 0.5)
    assert set(rep.to_json_dict()) == {
        "estimate_id", "parameters", "lhs", "rhs", "ratio", "trials",
        "max_ratio_over_trials",
    }


def brute_block_lhs(psis, mu, d, k):
    """Exhaustive (2k+2)-fold sum over the (mu-restricted) resonance set."""
    side = psis[0].shape[0]
    N = (side - 1) // 2
    modes = [np.array(m) for m in itertools.product(range(-N, N + 1), repeat=d)]
    total = 0.0
    for tup in itertools.product(modes, repeat=2 * k + 1):
        n0 = sum((-1) ** j * m for j, m in enumerate(tup))
        if np.any(np.abs(n0) > N):
            continue
        lin, quad = alt_sum_stats([n0] + list(tup))
        if mu is not None and quad != mu:
            continue
        term = psis[0][tuple(n0 + N)]
        for j, m in enumerate(tup):
            term *= psis[j + 1][tuple(m + N)]
        total += term
    return total


@pytest.mark.parametrize("estimate,mu", [("eq27", None), ("eq26", 0), ("eq26", 2)])
def test_block_ratio_once_matches_enumeration(estimate, mu):
    # one trial of the block probes: _block_lhs over _block_rhs
    rng = np.random.default_rng(7)
    blocks = (1, 1, 1, 1)
    _, Bmax, nsq, _ = _dyadic_setup(blocks, 2, 1)  # Bmax = isqrt(4 - 2) = 1: [-1, 1]^2
    psis = [np.abs(rng.standard_normal(nsq.shape)) * (nsq <= 2) for _ in range(4)]
    lhs, = _block_lhs(psis, nsq, Bmax, 2, 1, _block_mus(estimate, mu))
    rhs = _block_rhs(blocks, 0.1, psis)
    ratio = lhs / rhs
    expected = brute_block_lhs(psis, mu, 2, 1)
    assert lhs == pytest.approx(expected, rel=1e-12)
    norms = np.prod([np.sqrt((p ** 2).sum()) for p in psis])
    assert rhs == pytest.approx(norms, rel=1e-12)  # all blocks 1: shape factor 1
    assert ratio == pytest.approx(lhs / rhs, rel=1e-12)


def test_dyadic_block_ratio_validation():
    with pytest.raises(ConfigError):
        dyadic_block_ratio("eq25", (1, 1, 1, 1), 0, 2, 1, 0.1, 2, 0)
    with pytest.raises(ConfigError):
        dyadic_block_ratio("eq26", (1, 1, 1, 1), None, 2, 1, 0.1, 2, 0)
    with pytest.raises(ConfigError):
        dyadic_block_ratio("eq26", (3, 1, 1, 1), 0, 2, 1, 0.1, 2, 0)
    with pytest.raises(ConfigError):
        dyadic_block_ratio("eq26", (1, 1, 1), 0, 2, 1, 0.1, 2, 0)


def test_dyadic_block_ratio_witness_floor():
    rep = dyadic_block_ratio("eq26", (2, 2, 1, 1), 0, 2, 1, 0.1,
                             trials=4, seed=3)
    shape = 2.0 ** (-0.2) * 2.0 ** 0.1 * 2.0 ** 0.1  # Nmax^{-2s} prod Nj^s
    assert rep.max_ratio_over_trials >= 1.0 / shape - 1e-12
    assert rep.estimate_id == "eq26"
    assert rep.parameters["blocks"] == [2, 2, 1, 1]


def test_dyadic_block_ratio_witness_trials(monkeypatch):
    # odd trials take the closed-form witness floor and draw no random
    # numbers; over budget the sweep has no witness and every trial draws
    blocks, mu, s = (2, 2, 1, 1), 0, 0.1
    _, Bmax, nsq, masks = _dyadic_setup(blocks, 2, 1)
    rng = np.random.default_rng(3)
    draws = []
    for _ in range(2):
        psis = [resonance._shell_profile(rng, m) for m in masks]
        lhs, = _block_lhs(psis, nsq, Bmax, 2, 1, [mu])
        draws.append(lhs / _block_rhs(blocks, s, psis))
    floor = 1.0 / _block_rhs(blocks, s)
    rep = dyadic_block_ratio("eq26", blocks, mu, 2, 1, s, trials=3, seed=3)
    assert rep.max_ratio_over_trials == max(floor, *draws)

    monkeypatch.setitem(spectral._SIZE_LIMITS, "enumeration", 1.0)
    rep = dyadic_block_ratio("eq26", blocks, mu, 2, 1, s, trials=2, seed=3)
    assert rep.max_ratio_over_trials == max(draws)
    with pytest.raises(NumericsError, match="enumeration budget"):
        eq26_mu_sweep(blocks, 2, 1, s, trials=1, seed=3)


def _kernel_xnorm(trials):
    path = make_linear_path(1.0, 8)
    cfg = YoungKernelConfig(1, 1, 2, path)
    return x_norm_estimate(cfg, gamma=0.5, s=0.5, trials=trials, seed=0)


@pytest.mark.parametrize("trials", [0, -1, 2.5])
@pytest.mark.parametrize("probe", [
    lambda t: estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=3, trials=t, seed=0),
    lambda t: dyadic_block_ratio("eq26", (2, 2, 1, 1), 0, 2, 1, 0.1, trials=t, seed=0),
    lambda t: eq26_mu_sweep((2, 2, 1, 1), 2, 1, 0.1, trials=t, seed=0),
    _kernel_xnorm,
], ids=["eq21", "dyadic", "eq26-sweep", "xnorm"])
def test_trials_must_be_a_positive_integer(probe, trials):
    with pytest.raises(ConfigError, match="trials must be a positive integer"):
        probe(trials)


def test_eq26_sweep_over_budget_is_a_numerics_error():
    # A(0) holds (n, n, m, m) on these shells; the witness scan is what
    # is too large, not the class that is empty
    with pytest.raises(NumericsError,
                       match=r"2\.16e\+08 candidate tuples exceed the "
                             r"enumeration budget 2e\+07"):
        eq26_mu_sweep((8, 8, 8, 8), 2, 1, 0.1, trials=1, seed=0)


def test_eq26_sweep_one_sided_blocks_have_no_tuples():
    # three 1-blocks hold |n_j|^2 <= 2, so the zero-sum constraint caps
    # |n_0| at 3 * (isqrt(2) + 1) = 6, far below the 4096 block's shell:
    # its clipped window is empty, not a 1.0e8-entry mu range
    blocks, Bmax, nsq, masks = _dyadic_setup((4096, 1, 1, 1), 1, 1)
    mu_lo, mu_hi = resonance._price_shell_scan(masks, nsq, 1)
    assert mu_hi < mu_lo
    with pytest.raises(ConfigError, match="no resonant tuples"):
        eq26_mu_sweep((4096, 1, 1, 1), 1, 1, 0.1, trials=1, seed=0)


def test_eq27_ratio_nonincreasing_when_block_raised():
    ratios = []
    for B in (1, 2, 4):
        rep = dyadic_block_ratio("eq27", (B, 1, 1, 1), None, 2, 1, 1.0,
                                 trials=8, seed=11)
        ratios.append(rep.max_ratio_over_trials)
    assert ratios[1] <= ratios[0] * 1.05
    assert ratios[2] <= ratios[1] * 1.05


def test_eq26_mu_sweep_keys_and_floor():
    sweep = eq26_mu_sweep((2, 2, 1, 1), 2, 1, 0.1, trials=3, seed=1)
    assert set(sweep) == {"mu_values", "ratios", "spread", "floor", "trials"}
    assert sweep["spread"] >= 1.0
    assert np.all(sweep["ratios"] >= sweep["floor"] - 1e-12)
    assert 0 in sweep["mu_values"]
    again = eq26_mu_sweep((2, 2, 1, 1), 2, 1, 0.1, trials=3, seed=1)
    np.testing.assert_array_equal(sweep["ratios"], again["ratios"])


def brute_shell_mus(masks, nsq, Bmax, d):
    """Attained mu over all zero-sum tuples with every slot on its shell.

    Broadcasts the full four-slot product of the shell mode lists, with
    no slot eliminated, so it shares no code with _zero_sum_scan.
    """
    cube = cube_modes(-Bmax, Bmax, d)
    lin, quad = four_slot_sums([cube[m.ravel()] for m in masks], d)
    return set(np.unique(quad[~np.any(lin, axis=-1)]).tolist())


@pytest.mark.parametrize("blocks,d", [((2, 2, 1, 1), 1), ((4, 4, 2, 2), 2),
                                      ((2, 2, 2, 2), 2)])
def test_shell_witnesses_match_brute_force(blocks, d):
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, 1)
    want = brute_shell_mus(masks, nsq, Bmax, d)
    mus, lhs = _shell_witnesses(masks, nsq, Bmax, d, 1)
    assert mus.tolist() == sorted(want)
    assert lhs.shape == (0, len(mus))


@pytest.mark.parametrize("blocks,d", [
    ((2, 2, 1, 1), 1), ((4, 4, 2, 2), 2), ((2, 2, 2, 2), 2), ((4, 2, 2, 2), 2),
    ((2, 2, 1, 1), 3), ((2, 2, 1, 1, 1, 1), 1), ((2, 2, 1, 1, 1, 1), 2),
])
def test_shell_scan_lhs_matches_fold(blocks, d):
    # the fold (_block_lhs) is the oracle: on all-ones shell profiles it
    # counts each class's in-shell members, on random ones it sums the lhs
    k = len(blocks) // 2 - 1
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, k)
    rng = np.random.default_rng(26)
    profiles = [[resonance._shell_profile(rng, m) for m in masks] for _ in range(3)]
    mus, lhs = _shell_witnesses(masks, nsq, Bmax, d, k, profiles)
    span = range(-(k + 1) * d * Bmax ** 2, (k + 1) * d * Bmax ** 2 + 1)
    counts = _block_lhs([m.astype(float) for m in masks], nsq, Bmax, d, k, span)
    assert mus.tolist() == [mu for mu, c in zip(span, counts) if c > 0.5]
    np.testing.assert_array_equal(_shell_witnesses(masks, nsq, Bmax, d, k)[0], mus)
    want = [_block_lhs(p, nsq, Bmax, d, k, mus.tolist()) for p in profiles]
    assert lhs.shape == (3, len(mus))
    np.testing.assert_allclose(lhs, want, rtol=1e-13, atol=0)


def test_eq26_sweep_never_folds(monkeypatch):
    def no_fold(*args):
        raise AssertionError("the sweep folded")
    for target in ("resonance.fold", "resonance.fold_dense", "_fold.fold",
                   "_fold.fold_dense", "_fold.fold_fft"):
        monkeypatch.setattr(f"modnls.{target}", no_fold)
    sweep = eq26_mu_sweep((4, 4, 2, 2), 2, 1, 0.1, trials=4, seed=3)
    assert len(sweep["mu_values"]) == 55


def test_eq26_sweep_prices_its_trials_before_drawing(monkeypatch):
    # the profiles and the scan's arrays grow with trials: (trials + 1) x
    # max((2k+2) cube, slots 2..2k+1 shell product, mu range) entries
    def no_draw(*args):
        raise AssertionError("a profile was drawn")
    monkeypatch.setattr(resonance, "_shell_profile", no_draw)
    # (4, 4, 2, 2), d = 2: slots 2 and 3 hold 36 x 36 shell modes, above 4 x 15^2
    with pytest.raises(NumericsError, match=r"1\.3e\+09 eq26 scan entries .* memory budget"):
        eq26_mu_sweep((4, 4, 2, 2), 2, 1, 0.1, trials=10 ** 6, seed=0)
    # (2, 2, 1, 1), d = 2: a 7^2 cube, so 2 x 4 x 49 entries at one trial
    monkeypatch.setitem(spectral._SIZE_LIMITS, "memory", 300)
    with pytest.raises(NumericsError, match=r"392 eq26 scan entries .* memory budget 3e\+02"):
        eq26_mu_sweep((2, 2, 1, 1), 2, 1, 0.1, trials=1, seed=0)
