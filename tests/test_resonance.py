"""Resonance sets A(mu), the counting identity, and estimate ratio probes."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modnls import resonance
from modnls._fold import alternating_slots, fold
from modnls.errors import ConfigError, NumericsError
from modnls.resonance import (
    EstimateReport,
    ResonanceTuple,
    _dyadic_setup,
    _eq21_weight,
    _shell_witnesses,
    block_ratio_once,
    dyadic_block_ratio,
    enumerate_A,
    eq21_ratio,
    eq26_mu_sweep,
    estimate_ratio_eq21,
    verify_counting_partition,
)


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
    good = ResonanceTuple(modes=np.array([[1], [1], [0], [0]]), mu=0)
    assert good.d == 1 and good.k == 1
    with pytest.raises(ConfigError):
        ResonanceTuple(modes=np.array([[1], [0], [0], [0]]), mu=0)
    with pytest.raises(ConfigError):
        ResonanceTuple(modes=np.array([[1], [1], [0], [0]]), mu=2)


def test_enumerate_A_reference_example():
    tuples = enumerate_A(0, (0, 1), d=1, k=1)
    assert len(tuples) == 6
    seen = {tuple(t.modes.ravel()) for t in tuples}
    assert seen == {(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1),
                    (0, 1, 1, 0), (0, 0, 1, 1), (1, 1, 1, 1)}
    for t in tuples:
        lin, quad = alt_sum_stats(list(t.modes))
        assert np.all(lin == 0) and quad == 0


def test_enumerate_A_degenerate_boxes():
    only_zero = enumerate_A(0, (0, 0), d=2, k=1)
    assert len(only_zero) == 1
    assert not enumerate_A(2, (0, 0), d=2, k=1)
    assert not enumerate_A(1, (-1, 1), d=1, k=1)  # odd mu is unattainable
    assert not enumerate_A(100, (-1, 1), d=1, k=1)
    assert not enumerate_A(0, (1, 0), d=1, k=1)  # empty slot range


def test_enumerate_A_sign_flip_bijection():
    for mu in (0, 2, 4):
        tuples = enumerate_A(mu, (-2, 2), d=1, k=1)
        seen = {tuple(t.modes.ravel()) for t in tuples}
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
        lin, quad = alt_sum_stats(list(t.modes))
        assert np.all(lin == 0) and quad == mu
        assert np.all(t.modes >= lo) and np.all(t.modes <= hi)
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
        seen.append(found[0])
        return [seen[0]] + found[1:] if len(seen) == 2 else found

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


def test_estimate_ratio_eq21_deterministic_report():
    a = estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=3, trials=4, seed=8)
    b = estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, N=3, trials=4, seed=8)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.estimate_id == "eq21"
    assert a.trials == 4
    assert a.max_ratio_over_trials == a.ratio == pytest.approx(a.lhs / a.rhs)
    for key in ("d", "k", "rho", "s", "s_prime", "q", "N"):
        assert key in a.parameters


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
    rng = np.random.default_rng(7)
    blocks = (1, 1, 1, 1)
    masks_side = 3  # Bmax = isqrt(4 - 2) = 1 so the cube is [-1, 1]^2
    psis = [np.abs(rng.standard_normal((masks_side, masks_side)))
            for _ in range(4)]
    nsq = np.add.outer(np.arange(-1, 2) ** 2, np.arange(-1, 2) ** 2)
    psis = [p * (nsq <= 2) for p in psis]
    lhs, rhs, ratio = block_ratio_once(estimate, psis, blocks, mu, 2, 1, s=0.1)
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
    masks = _dyadic_setup(blocks, 2, 1)[3]
    rng = np.random.default_rng(3)
    draws = [block_ratio_once("eq26", [resonance._shell_profile(rng, m)
                                       for m in masks], blocks, mu, 2, 1, s)[2]
             for _ in range(2)]
    floor = 1.0 / resonance._block_rhs(blocks, s)
    rep = dyadic_block_ratio("eq26", blocks, mu, 2, 1, s, trials=3, seed=3)
    assert rep.max_ratio_over_trials == max(floor, *draws)

    monkeypatch.setattr(resonance, "_CANDIDATE_LIMIT", 1.0)
    rep = dyadic_block_ratio("eq26", blocks, mu, 2, 1, s, trials=2, seed=3)
    assert rep.max_ratio_over_trials == max(draws)
    with pytest.raises(NumericsError, match="enumeration budget"):
        eq26_mu_sweep(blocks, 2, 1, s, trials=1, seed=3)


def test_eq26_sweep_over_budget_is_a_numerics_error():
    # A(0) holds (n, n, m, m) on these shells; the witness scan is what
    # is too large, not the class that is empty
    with pytest.raises(NumericsError,
                       match=r"2\.16e\+08 candidate tuples exceed the "
                             r"enumeration budget 2e\+07"):
        eq26_mu_sweep((8, 8, 8, 8), 2, 1, 0.1, trials=1, seed=0)


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


@pytest.mark.parametrize("blocks,d", [((2, 2, 1, 1), 1), ((4, 4, 2, 2), 2)])
def test_shell_witnesses_match_brute_force(blocks, d):
    blocks, Bmax, nsq, masks = _dyadic_setup(blocks, d, 1)
    want = brute_shell_mus(masks, nsq, Bmax, d)
    assert _shell_witnesses(masks, nsq, Bmax, d, 1) == want
