"""The integer rule of errors.check_int at every library entry that takes an integer."""

import numpy as np
import pytest

from modnls import _fold, _runtime
from modnls.errors import ConfigError, check_int
from modnls.paths import make_fbm_path, make_linear_path
from modnls.phi import build_phi_table, default_pairs
from modnls.resonance import (dyadic_block_ratio, enumerate_A, eq21_ratio, eq26_mu_sweep,
                              estimate_ratio_eq21, verify_counting_partition)
from modnls.solver import (SolverConfig, Trajectory, plane_wave_exact, reference_split_step,
                           uniform_partition, young_integral)
from modnls.spectral import nonlinearity, random_state, unit_mode, zero_state
from modnls.young import YoungKernelConfig, check_kernel_box, x_norm_estimate

PATH = make_linear_path(0.1, 4)
NAN = float("nan")


@pytest.fixture(autouse=True)
def _one_worker(monkeypatch):
    # set_workers cases must not leak a worker count into other tests
    monkeypatch.setattr(_runtime, "_workers", 1)


def solver_cfg(**kw):
    base = dict(d=1, k=1, N=2, s=1.0, gamma=0.55, lam=0.5, rho=1.0, T=0.1,
                partition=uniform_partition(0.1, 4))
    return SolverConfig(**{**base, **kw})


def young_sum(s_idx, t_idx):
    cfg = solver_cfg()
    traj = Trajectory(cfg.partition, [zero_state(1, 2)] * cfg.partition.size)
    return young_integral(cfg, traj, s_idx, t_idx, PATH)


# every seed handed to numpy's default_rng: a Generator is still taken where
# random_state documents it, -1 and None are refused besides bools and floats
SEEDS = {
    "fbm_path-seed": (lambda v: make_fbm_path(0.5, 1.0, 4, v), 0),
    "random_state-seed": (lambda v: random_state(1, 2, 1.0, v), 0),
    "x_norm-seed": (lambda v: x_norm_estimate(YoungKernelConfig(1, 1, 2, PATH),
                                              0.5, 1.0, 1, v), 0),
    "eq21-seed": (lambda v: estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, 2, 1, v), 0),
    "dyadic-seed": (lambda v: dyadic_block_ratio("eq27", (2, 2, 2, 2), None, 2, 1,
                                                 0.1, 1, v), 0),
    "eq26_sweep-seed": (lambda v: eq26_mu_sweep((2, 2, 1, 1), 2, 1, 0.1, 1, v), 0),
}

# each was truncated, accepted or ended in a bare TypeError before the rule
REFUSED = {
    "enumerate_A-half-width-2.5": lambda: enumerate_A(0, 2.5, d=1, k=1),
    "counting-pair-0.5-1.9": lambda: verify_counting_partition((0.5, 1.9), 1, 1),
    "dyadic-block-2.5": lambda: dyadic_block_ratio("eq27", (2.5, 2, 2, 2), None, 2, 1,
                                                   0.1, 1, 0),
    "unit_mode-1.5": lambda: unit_mode(1, 3, 1.5),
    "plane_wave-1.5": lambda: plane_wave_exact(1.0, 1.5, None, 0.0, 1, 3),
    "plane_wave-1.7,-0.2": lambda: plane_wave_exact(1.0, [1.7, -0.2], None, 0.0, 1, 3),
    "uniform_partition-True": lambda: uniform_partition(1.0, True),
    "phi_table-True": lambda: build_phi_table(PATH, True),
    "enumerate_A-mu-True": lambda: enumerate_A(True, 1, 1, 1),
    "set_workers-True": lambda: _runtime.set_workers(True),
    "set_workers-2.0": lambda: _runtime.set_workers(2.0),
    "Slot-True": lambda: _fold.Slot(np.ones(3), True),
    "Slot-1.0": lambda: _fold.Slot(np.ones(3), 1.0),
    "max_iter-3.0": lambda: solver_cfg(max_iter=3.0),
    "uniform_partition-None": lambda: uniform_partition(1.0, None),
    "phi_table-None": lambda: build_phi_table(PATH, None),
    "enumerate_A-mu-None": lambda: enumerate_A(None, 1, 1, 1),
    "set_workers-None": lambda: _runtime.set_workers(None),
    "max_iter-None": lambda: solver_cfg(max_iter=None),
    "enumerate_A-per-slot": lambda: enumerate_A(0, [(0, 1)] * 4, 1, 1),
    "counting-per-slot": lambda: verify_counting_partition([(0, 1)] * 4, 1, 1),
    "SolverConfig-T-nan": lambda: solver_cfg(T=NAN),
    "SolverConfig-rho-nan": lambda: solver_cfg(rho=NAN),
    "SolverConfig-tol-nan": lambda: solver_cfg(tol=NAN),
    "uniform_partition-T-nan": lambda: uniform_partition(NAN, 4),
    **{f"{name}-{v}": (lambda call=call, v=v: call(v))
       for name, (call, _) in SEEDS.items() for v in (-1, None)},
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_inputs_the_rule_refuses(call):
    with pytest.raises(ConfigError):
        call()


def test_state_lookup_refuses_a_float_mode():
    with pytest.raises(KeyError, match="integer components"):
        unit_mode(1, 3, 1)[1.5]


# (call of one integer parameter, a valid value for it)
SITES = {
    "zero_state-d": (lambda v: zero_state(v, 2), 1),
    "zero_state-N": (lambda v: zero_state(1, v), 4),
    "random_state-N": (lambda v: random_state(1, v, 1.0, 0), 4),
    "nonlinearity-k": (lambda v: nonlinearity([zero_state(1, 2)] * 3, v), 1),
    "unit_mode-n": (lambda v: unit_mode(1, 4, v), 1),
    "unit_mode-n-list": (lambda v: unit_mode(2, 4, [0, v]), 1),
    "state-getitem": (lambda v: zero_state(1, 4)[v], 1),
    "kernel-d": (lambda v: check_kernel_box(v, 1, 2), 1),
    "kernel-k": (lambda v: check_kernel_box(1, v, 2), 1),
    "kernel-N": (lambda v: check_kernel_box(1, 1, v), 4),
    "x_norm-trials": (lambda v: x_norm_estimate(YoungKernelConfig(1, 1, 2, PATH),
                                                0.5, 1.0, v, 0), 1),
    "linear_path-M": (lambda v: make_linear_path(1.0, v), 4),
    "fbm_path-M": (lambda v: make_fbm_path(0.5, 1.0, v, 0), 4),
    "uniform_partition-M": (lambda v: uniform_partition(1.0, v), 4),
    "phi_table-mu_max": (lambda v: build_phi_table(PATH, v), 4),
    "pairs-per_scale": (lambda v: default_pairs(PATH, v), 4),
    "SolverConfig-d": (lambda v: solver_cfg(d=v), 1),
    "SolverConfig-k": (lambda v: solver_cfg(k=v), 1),
    "SolverConfig-N": (lambda v: solver_cfg(N=v), 4),
    "SolverConfig-max_iter": (lambda v: solver_cfg(max_iter=v), 4),
    "young_integral-s": (lambda v: young_sum(v, 4), 1),
    "young_integral-t": (lambda v: young_sum(0, v), 1),
    "split_step-k": (lambda v: reference_split_step(zero_state(1, 2), 0.01, 0.01, 1, v, 2), 1),
    "plane_wave-k": (lambda v: plane_wave_exact(1.0, 1, None, 0.0, v, 2), 1),
    "plane_wave-m": (lambda v: plane_wave_exact(1.0, v, None, 0.0, 1, 4), 1),
    "enumerate_A-mu": (lambda v: enumerate_A(v, 1, 1, 1), 0),
    "enumerate_A-half-width": (lambda v: enumerate_A(0, v, 1, 1), 1),
    "enumerate_A-bound": (lambda v: enumerate_A(0, (0, v), 1, 1), 1),
    "enumerate_A-d": (lambda v: enumerate_A(0, 1, v, 1), 1),
    "enumerate_A-k": (lambda v: enumerate_A(0, 1, 1, v), 1),
    "counting-half-width": (lambda v: verify_counting_partition(v, 1, 1), 1),
    "eq21_ratio-d": (lambda v: eq21_ratio([np.ones((5, 5))] * 3, v, 1, 1.0, 0.3, 0.0, 1), 2),
    "eq21_ratio-k": (lambda v: eq21_ratio([np.ones((5, 5))] * 3, 2, v, 1.0, 0.3, 0.0, 1), 1),
    "eq21_ratio-q": (lambda v: eq21_ratio([np.ones((5, 5))] * 3, 2, 1, 1.0, 0.3, 0.0, v), 1),
    "eq21-trials": (lambda v: estimate_ratio_eq21(2, 1, 1.0, 0.3, 0.0, 1, 2, v, 0), 1),
    "dyadic-block": (lambda v: dyadic_block_ratio("eq27", (4, 2, 2, v), None, 2, 1,
                                                  0.1, 1, 0), 2),
    "dyadic-mu": (lambda v: dyadic_block_ratio("eq26", (2, 2, 1, 1), v, 2, 1, 0.1, 1, 0), 0),
    "dyadic-trials": (lambda v: dyadic_block_ratio("eq27", (2, 2, 2, 2), None, 2, 1,
                                                   0.1, v, 0), 1),
    "eq26_sweep-trials": (lambda v: eq26_mu_sweep((2, 2, 1, 1), 2, 1, 0.1, v, 0), 1),
    "set_workers": (lambda v: _runtime.set_workers(v), 2),
    "Slot-sign": (lambda v: _fold.Slot(np.ones(3), v), 1),
    **SEEDS,
}


@pytest.mark.parametrize("value", [True, np.True_, 4.0, 2.5],
                         ids=["True", "np.True_", "4.0", "2.5"])
@pytest.mark.parametrize("call", [c for c, _ in SITES.values()], ids=SITES.keys())
def test_bools_and_floats_are_refused(call, value):
    with pytest.raises(KeyError if call is SITES["state-getitem"][0] else ConfigError):
        call(value)


@pytest.mark.parametrize("call,valid", SITES.values(), ids=SITES.keys())
def test_numpy_integers_pass(call, valid):
    call(np.int64(valid))
    call(np.int32(valid))


def test_random_state_takes_a_generator():
    a = random_state(1, 2, 1.0, np.random.default_rng(7))
    np.testing.assert_array_equal(a.coeffs, random_state(1, 2, 1.0, 7).coeffs)


def test_check_int_wording_and_value():
    assert check_int(np.int64(3), "trials") == 3 and type(check_int(np.int64(3), "x")) is int
    assert check_int(-2, "mu", None) == -2
    with pytest.raises(ConfigError, match="^trials must be a positive integer, got 0$"):
        check_int(0, "trials")
    with pytest.raises(ConfigError, match="^mu_max must be a nonnegative integer, got -1$"):
        check_int(-1, "mu_max", 0)
    with pytest.raises(ConfigError, match="^mu must be an integer, got 0.5$"):
        check_int(0.5, "mu", None)
