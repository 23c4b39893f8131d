import cmath
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochrate import (
    CollisionParams,
    LorentzianSpectrum,
    StepSizeError,
    SystemParams,
    TabulatedSpectrum,
    autocorrelation_kernel,
    eigenvalues,
    from_phase_diffusion,
    integrate_effective_bloch,
    integrate_ere,
    integrate_generalized_ere,
    integrate_memory_kernel,
    integrate_modified_ere,
    measured_oscillation_frequency,
    spectral_density,
    steady_state,
)
from blochrate import kinetics

REF = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))  # zeta*bw21 = 11/6


def ere_exact(params, t, n0=-1.0):
    """Closed solution of the rate equation on an arbitrary time grid."""
    rate = params.a + 2.0 * params.zeta_bw21
    n_inf = -params.a / rate
    return n_inf + (n0 - n_inf) * np.exp(-rate * np.asarray(t, dtype=float))


# ----------------------------------------------------------------------
# plain rate equation

def test_ere_matches_closed_solution():
    trace = integrate_ere(REF, 6.0, 1e-3)
    assert np.max(np.abs(trace.n - ere_exact(REF, trace.t))) <= 1e-8


def test_ere_fourth_order_convergence():
    errs = []
    for dt in (0.02, 0.01, 0.005):
        tr = integrate_ere(REF, 6.0, dt)
        errs.append(np.max(np.abs(tr.n - ere_exact(REF, tr.t))))
    assert 12.0 <= errs[0] / errs[1] <= 21.0
    assert 12.0 <= errs[1] / errs[2] <= 21.0


def test_ere_free_decay():
    p = SystemParams(a=1.0, delta=5.0, omega0=0.0)
    tr = integrate_ere(p, 5.0, 1e-3, n0=0.5)
    ref = -1.0 + 1.5 * np.exp(-tr.t)
    assert np.max(np.abs(tr.n - ref)) <= 1e-12


def test_ere_steady_state_strong_pump():
    p = SystemParams(a=1.0, delta=10.0, omega0=math.sqrt(22.0))  # zeta*bw21 = 2
    tr = integrate_ere(p, 20.0, 1e-3)
    assert abs(tr.n[-1] - (-0.2)) <= 1e-6


def test_ere_short_time_slope():
    tr = integrate_ere(REF, 0.01, 1e-4)
    # quadratic fit separates the leading slope from curvature
    slope = np.polyfit(tr.t, tr.n + 1.0, 2)[1]
    want = 2.0 * REF.zeta_bw21
    assert abs(slope - want) / want <= 1e-2


def test_ere_refuses_coarse_step():
    with pytest.raises(StepSizeError):
        integrate_ere(REF, 6.0, 0.05)


def test_grid_requires_commensurate_times():
    with pytest.raises(ValueError):
        integrate_ere(REF, 1.0, 0.3)
    for t_end, dt in [(math.inf, 1e-3), (1.0, 0.0), (0.0, 1e-3)]:
        with pytest.raises(ValueError):
            integrate_ere(REF, t_end, dt)


# ----------------------------------------------------------------------
# modified rate equation

def test_modified_ere_quadratic_start():
    p = REF
    t_fit = 0.1 / p.gamma_eff
    tr = integrate_modified_ere(p, t_fit, t_fit / 200.0)
    coeff = np.polyfit(tr.t, tr.n + 1.0, 3)[1]
    want = p.zeta_bw21 * p.gamma_eff
    assert abs(coeff - want) / want <= 2e-2


def test_modified_ere_joins_ere_after_transient():
    tm = integrate_modified_ere(REF, 6.0, 1e-3)
    te = integrate_ere(REF, 6.0, 1e-3)
    late = tm.t >= 3.0       # 9 coherence-relaxation times
    assert np.max(np.abs(tm.n[late] - te.n[late])) <= 1e-4


def test_modified_ere_free_decay_reduces_to_ere():
    p = SystemParams(a=1.0, delta=5.0, omega0=0.0)
    tm = integrate_modified_ere(p, 4.0, 1e-3)
    te = integrate_ere(p, 4.0, 1e-3)
    assert np.max(np.abs(tm.n - te.n)) <= 1e-12


# ----------------------------------------------------------------------
# two-variable reduction

def test_effective_bloch_steady_state():
    tr = integrate_effective_bloch(REF, 50.0, 1e-3)
    assert abs(tr.n[-1] - (-3.0 / 14.0)) <= 1e-6
    assert abs(tr.q[-1] - tr.n[-1]) <= 1e-6


def test_effective_bloch_free_decay_q_relaxes_to_n():
    p = SystemParams(a=1.0, delta=10.0, omega0=0.0)
    tr = integrate_effective_bloch(p, 10.0, 1e-3, n0=-1.0, q0=0.8)
    assert abs(tr.n[-1] + 1.0) <= 1e-9
    assert abs(tr.q[-1] + 1.0) <= 1e-5


def test_effective_bloch_relaxation_rate_matches_eigenvalue():
    p = SystemParams(a=1.0, delta=10.0, omega0=2.0)
    tr = integrate_effective_bloch(p, 5.0, 1e-3)
    m = (tr.t >= 2.0) & (tr.t <= 4.0)
    slope = np.polyfit(tr.t[m], np.log(np.abs(tr.n[m] - steady_state(p))), 1)[0]
    lam = eigenvalues(p).lam_plus.real
    assert abs(slope - lam) / abs(lam) <= 2e-2


def test_effective_bloch_oscillation_frequency():
    p = SystemParams(a=1.0, delta=1.0, omega0=6.0)
    tr = integrate_effective_bloch(p, 15.0, 1e-3)
    f = measured_oscillation_frequency(tr.t, tr.n)
    assert abs(f - 6.0) / 6.0 <= 0.02


def test_effective_bloch_refuses_unresolved_oscillation():
    # gamma_eff alone would admit this step; the ring frequency does not
    p = SystemParams(a=1.0, delta=1.0, omega0=6.0)
    with pytest.raises(StepSizeError):
        integrate_effective_bloch(p, 1.0, 0.05)


# ----------------------------------------------------------------------
# memory kernel

def test_memory_kernel_equals_effective_bloch_for_lorentzian():
    spec = LorentzianSpectrum(peak=2.2, fwhm=5.0)   # b*W21 = 2.2
    p = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))
    tm = integrate_memory_kernel(spec, p, 5.0, 1e-4)
    tb = integrate_effective_bloch(p, 5.0, 1e-4)
    assert np.max(np.abs(tm.n - tb.n)) <= 1e-5


def test_memory_kernel_zero_drive_is_free_decay():
    p = SystemParams(a=1.0, delta=5.0, omega0=0.0)
    tr = integrate_memory_kernel(None, p, 5.0, 1e-3)
    assert np.max(np.abs(tr.n - (-1.0 + 0.0 * tr.t))) == 0.0
    tr2 = integrate_memory_kernel(None, p, 5.0, 1e-3, n0=0.0)
    assert np.max(np.abs(tr2.n - (-1.0 + np.exp(-tr2.t)))) <= 1e-6


def test_memory_kernel_markov_limit():
    # rate kinetics with the saturated incoherence fraction; the inertial
    # start leaves a lag that only the slow mode erases, so the comparison
    # window opens late
    p = SystemParams(a=1.0, delta=1e3, omega0=math.sqrt(1e3))
    tr = integrate_memory_kernel(None, p, 4.0, 1e-4)
    ref = -1.0 / 3.0 + (-1.0 + 1.0 / 3.0) * np.exp(-3.0 * tr.t)
    late = tr.t >= 0.4
    assert np.max(np.abs(tr.n[late] - ref[late])) <= 1e-3
    # residual offset is the finite-bandwidth correction, not solver error
    assert abs(tr.n[-1] - (-1.0 / 3.0)) <= 3e-4


def test_memory_kernel_refuses_unresolved_kernel():
    p = SystemParams(a=1.0, delta=1e3, omega0=math.sqrt(1e3))
    with pytest.raises(StepSizeError):
        integrate_memory_kernel(None, p, 1.0, 1e-2)


@pytest.mark.parametrize("params,spec", [
    (REF, None),                                               # criterion 5
    (SystemParams(a=1.0, delta=25.0, omega0=4.0), None),
    (REF, LorentzianSpectrum(peak=2.2, fwhm=5.0, center=3.0)),  # off-centre line
])
def test_memory_kernel_lorentzian_recursion_matches_direct_sum(params, spec,
                                                               monkeypatch):
    t_end, dt = 10.0, 1e-3
    fast = integrate_memory_kernel(spec, params, t_end, dt)
    line = spec or from_phase_diffusion(params.omega0, params.delta)
    # oracle: the same sampled kernel through the windowed direct history
    # sum, which the solver runs for any spectrum that is not a Lorentzian
    monkeypatch.setattr(kinetics, "autocorrelation_kernel",
                        lambda _, tau: autocorrelation_kernel(line, tau))
    direct = integrate_memory_kernel(SimpleNamespace(), params, t_end, dt)
    assert np.max(np.abs(fast.n - direct.n)) <= 1e-10


def lorentzian_step_loop(rho, a, g0, dt, n0, steps):
    """The Lorentzian solve one step at a time, with hist <- rho*(hist + n).

    integrate_memory_kernel's predictor-corrector on Python floats, as the
    solver ran it before it applied the step map to blocks of steps; kept as
    the oracle of that blocked solve.
    """
    neg_a, half_g0, half_dt, end_g0 = -a, 0.5 * g0, 0.5 * dt, dt * 0.5 * g0
    nk = n0
    hist = -0.5 * nk + 0j          # the far-edge half weight of the trapezoid
    j_curr = 0.0
    n = np.empty(steps + 1)
    out = memoryview(n)
    out[0] = nk
    for k in range(1, steps + 1):
        f_k = neg_a * (nk + 1.0) - 2.0 * j_curr
        n_pred = nk + dt * f_k
        hist = rho * (hist + nk)
        j_pred = dt * (g0 * hist.real + half_g0 * n_pred)
        nk = nk + half_dt * (f_k + (neg_a * (n_pred + 1.0) - 2.0 * j_pred))
        out[k] = nk
        j_curr = j_pred + end_g0 * (nk - n_pred)
    out.release()
    return n


OFF_CENTRE = LorentzianSpectrum(peak=2.2, fwhm=5.0, center=3.0)


# steps + 1 points in blocks of ceil(sqrt(steps + 1)): 1 and 1024 fill their
# blocks, 2 and 1056 leave a last block of one point, 1022 one of B - 1
@pytest.mark.parametrize("steps,spec", [
    *((steps, spec) for steps in (1, 2, 1022, 1023, 1056) for spec in (None, OFF_CENTRE)),
    (10 ** 6, OFF_CENTRE),
])
def test_memory_kernel_lorentzian_matches_the_step_loop(steps, spec):
    # the blocked solve rounds differently from the step loop: a few ulps per
    # block over sqrt(steps) blocks, 1e-13 at 1e6 steps
    dt = 1e-4
    line = spec or from_phase_diffusion(REF.omega0, REF.delta)
    g0 = float(autocorrelation_kernel(line, np.zeros(1))[0])
    rho = cmath.exp(complex(-(0.5 * line.fwhm + REF.gamma_perp) * dt, line.center * dt))
    for n0 in (-1.0, 0.0, 0.5):
        got = integrate_memory_kernel(spec, REF, steps * dt, dt, n0=n0).n
        want = lorentzian_step_loop(rho, REF.a, g0, dt, n0, steps)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12, (n0, np.max(np.abs(got - want)))


def ref_table():
    """REF's Lorentzian on 1201 nodes: uniform to |omega| = 10, then geometric to 3e4."""
    half = np.concatenate([np.linspace(0.0, 10.0, 401),
                           np.geomspace(10.0, 3e4, 201)[1:]])
    omega = np.concatenate([-half[:0:-1], half])
    lor = LorentzianSpectrum(peak=2.2, fwhm=5.0)
    return TabulatedSpectrum(omega=omega, values=spectral_density(lor, omega))


def test_memory_kernel_tabulated_memory_is_bounded():
    tab = ref_table()
    peak_mb = {}
    for t_end in (10.0, 40.0):
        tracemalloc.start()
        try:
            integrate_memory_kernel(tab, REF, t_end, 1e-3)
            peak_mb[t_end] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    # only the len(t) arrays grow, about 0.24 MB each from t_end=10 to 40
    assert peak_mb[10.0] < 64.0
    assert peak_mb[40.0] - peak_mb[10.0] < 5.0, peak_mb


def test_memory_kernel_lorentzian_memory_per_step():
    # 1e4 and 1e5 steps, both inside the kernel horizon (about 5.7e5 steps),
    # so every per-step array grows with the grid: t, the damped kernel and
    # n hold 24 bytes a step; n as a list of boxed floats, with whole-array
    # temporaries, made it about 80
    peak = {}
    for t_end in (1.0, 10.0):
        tracemalloc.start()
        try:
            integrate_memory_kernel(None, REF, t_end, 1e-4)
            peak[t_end] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_step = (peak[10.0] - peak[1.0]) / 90_000
    print(f"Lorentzian solve: {per_step:.1f} B a step")
    assert per_step <= 32.0, peak


def test_memory_kernel_horizon_lies_past_the_window(monkeypatch):
    # the solver evaluates the kernel only out to a horizon; every damped
    # value it skips must be below the window's 1e-12 threshold
    tab = ref_table()
    t = np.arange(10001) * 1e-2
    damped = autocorrelation_kernel(tab, t) * np.exp(-REF.gamma_perp * t)
    asked = []

    def kernel(spec, tau):
        asked.append(len(tau))
        return autocorrelation_kernel(spec, tau)

    monkeypatch.setattr(kinetics, "autocorrelation_kernel", kernel)
    integrate_memory_kernel(tab, REF, 100.0, 1e-2)
    assert asked[0] < len(t)
    assert np.all(np.abs(damped[asked[0]:]) < 1e-12 * damped[0])


def test_memory_kernel_refuses_undecaying_history():
    fake = SimpleNamespace(a=1.0, gamma_perp=0.0)
    spec = LorentzianSpectrum(peak=1.0, fwhm=2.0)
    with pytest.raises(ValueError):
        integrate_memory_kernel(spec, fake, 1.0, 1e-3)


# ----------------------------------------------------------------------
# collisional pumping

SOLVERS = {
    "ere": lambda **s: integrate_ere(REF, 0.5, 1e-3, **s),
    "generalized-ere": lambda **s: integrate_generalized_ere(
        REF, CollisionParams(0.5, 0.2), 0.5, 1e-3, **s),
    "modified-ere": lambda **s: integrate_modified_ere(REF, 0.5, 1e-3, **s),
    "effective-bloch": lambda **s: integrate_effective_bloch(REF, 0.5, 1e-3, **s),
    "memory-kernel": lambda **s: integrate_memory_kernel(None, REF, 0.5, 1e-3, **s),
    "memory-kernel-table": lambda **s: integrate_memory_kernel(ref_table(), REF, 0.5,
                                                               1e-3, **s),
}
BAD_STARTS = [dict(n0=math.nan), dict(n0=math.inf), dict(n0=-math.inf),
              dict(n0=1.5), dict(n0=-1.0 - 1e-12)]


@pytest.mark.parametrize("model", sorted(SOLVERS))
def test_initial_state_refused_before_any_step(model, monkeypatch):
    # the rule of the ensemble engine: finite, |n0| <= 1. ere used to return
    # NaN everywhere, memory-kernel to fail its first step (StepSizeError)
    def stepped(*args, **kwargs):
        raise AssertionError("the solver ran before its start was checked")

    monkeypatch.setattr(kinetics, "time_grid", stepped)
    for start in BAD_STARTS + ([dict(q0=math.nan), dict(q0=math.inf)]
                               if model == "effective-bloch" else []):
        with pytest.raises(ValueError, match="initial state") as refused:
            SOLVERS[model](**start)
        assert not isinstance(refused.value, StepSizeError)
    monkeypatch.undo()
    for n0 in (1.0, -1.0):                  # the bounds are inclusive
        assert np.all(np.isfinite(SOLVERS[model](n0=n0).n))


def test_memory_kernel_divergence_step_matches_direct_sum(monkeypatch):
    # a kernel of the wrong sign passes the step guards and grows without
    # bound; the Lorentzian loop finds the divergence after the loop, and
    # must name the step at which the direct-sum loop stops
    line = from_phase_diffusion(REF.omega0, REF.delta)
    monkeypatch.setattr(kinetics, "autocorrelation_kernel",
                        lambda _, tau: -1e6 * autocorrelation_kernel(line, tau))
    with pytest.raises(StepSizeError, match="diverged") as direct, \
            np.errstate(over="ignore", invalid="ignore"):   # the history sum overflows
        integrate_memory_kernel(SimpleNamespace(), REF, 1.0, 1e-3)
    with pytest.raises(StepSizeError, match="diverged") as lean:
        integrate_memory_kernel(line, REF, 1.0, 1e-3)
    assert str(lean.value) == str(direct.value)


def test_generalized_reduces_to_plain_rate_equation():
    tr_g = integrate_generalized_ere(REF, CollisionParams(), 6.0, 1e-3)
    tr_e = integrate_ere(REF, 6.0, 1e-3)
    assert np.array_equal(tr_g.n, tr_e.n)


def test_generalized_collisional_equilibrium():
    p = SystemParams(a=1.0, delta=5.0, omega0=0.0)
    coll = CollisionParams(gamma_21=1.0, gamma_12=0.5)
    assert math.isclose(coll.gamma_parallel(p.a), 2.5, rel_tol=1e-15)
    assert math.isclose(coll.n_equilibrium(p.a), -0.6, rel_tol=1e-15)
    tr = integrate_generalized_ere(p, coll, 20.0, 1e-3)
    assert abs(tr.n[-1] - (-0.6)) <= 1e-6


def test_collision_params_validation():
    with pytest.raises(ValueError):
        CollisionParams(gamma_21=1.0, gamma_12=2.0)   # inverted balance
    with pytest.raises(ValueError):
        CollisionParams(gamma_21=-1.0, gamma_12=0.0)


# ----------------------------------------------------------------------
# shared bounds

solver_cases = st.tuples(
    st.sampled_from(["ere", "modified", "bloch", "memory", "generalized"]),
    st.floats(min_value=0.1, max_value=5.0),    # a
    st.floats(min_value=0.5, max_value=30.0),   # delta
    # zero or a representable drive; omega0**2 must not underflow
    st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=5.0)),
)


@given(case=solver_cases)
@settings(max_examples=25, deadline=None)
def test_all_solvers_respect_population_bounds(case):
    name, a, delta, omega0 = case
    p = SystemParams(a=a, delta=delta, omega0=omega0)
    dt = 1e-3
    try:
        if name == "ere":
            tr = integrate_ere(p, 2.0, dt)
        elif name == "modified":
            tr = integrate_modified_ere(p, 2.0, dt)
        elif name == "bloch":
            tr = integrate_effective_bloch(p, 2.0, dt)
        elif name == "memory":
            tr = integrate_memory_kernel(None, p, 2.0, dt)
        else:
            tr = integrate_generalized_ere(p, CollisionParams(0.5, 0.2), 2.0, dt)
    except StepSizeError:
        assume(False)
    tol = 1.0 + 10.0 * dt
    assert np.all(tr.n >= -tol) and np.all(tr.n <= tol)
