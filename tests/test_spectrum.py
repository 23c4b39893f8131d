import math
import tracemalloc

import numpy as np
import pytest

from blochrate import (
    LorentzianSpectrum,
    SpectrumSupportError,
    TabulatedSpectrum,
    autocorrelation_kernel,
    from_phase_diffusion,
    fwhm_of,
    load_tabulated,
    simulate_phases,
    spectral_density,
    spectrum_from_autocorrelation,
    spectrum_from_kernel,
    wk_estimate,
)
from blochrate import spectrum
from test_kinetics import ref_table


def lorentz_table(lor, edge, core_halfwidth=50.0, dx=0.01, ratio=1.005):
    """Tabulate a Lorentzian on a linear core plus geometric tails.

    Plain wide-span grids put the whole tail into a handful of chords and
    the tau=0 kernel mass picks up their convexity bias; a ratio-capped
    tail keeps every chord close to the curve.
    """
    core = np.arange(-core_halfwidth, core_halfwidth + dx / 2, dx)
    n_tail = int(math.ceil(math.log(edge / core_halfwidth) / math.log(ratio)))
    tail = core_halfwidth * ratio ** np.arange(1, n_tail + 1)
    x = np.concatenate([-tail[::-1], core, tail]) + lor.center
    return TabulatedSpectrum(omega=x, values=spectral_density(lor, x))


# ----------------------------------------------------------------------
# models and closed forms

def test_lorentzian_density_closed_form():
    s = LorentzianSpectrum(peak=3.0, fwhm=2.0, center=1.0)
    assert spectral_density(s, 1.0) == 3.0
    # half maximum at center +- fwhm/2
    assert math.isclose(spectral_density(s, 2.0), 1.5, rel_tol=1e-15)
    assert math.isclose(spectral_density(s, 0.0), 1.5, rel_tol=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(peak=0.0, fwhm=1.0),
    dict(peak=-1.0, fwhm=1.0),
    dict(peak=1.0, fwhm=0.0),
    dict(peak=1.0, fwhm=-2.0),
    dict(peak=math.nan, fwhm=1.0),
    dict(peak=1.0, fwhm=1.0, center=math.inf),
])
def test_bad_lorentzian_rejected(kwargs):
    with pytest.raises(ValueError):
        LorentzianSpectrum(**kwargs)


def test_lorentzian_width_whose_square_underflows_rejected():
    # (fwhm/2)**2 below the smallest normal double made spectral_density
    # divide 0 by 0 at the centre; the narrowest line accepted is exact there
    for fwhm in (1e-300, 1e-160, 2.9e-154):
        with pytest.raises(ValueError, match="underflows"):
            LorentzianSpectrum(1.0, fwhm)
    s = LorentzianSpectrum(1.0, 3e-154, center=2.0)
    assert spectral_density(s, 2.0) == 1.0
    LorentzianSpectrum(1.0, 1e200)          # a square that overflows is no underflow


def test_phase_diffusion_spectrum_has_pinned_peak():
    s = from_phase_diffusion(omega0=2.0, delta=5.0)
    assert s.fwhm == 5.0
    assert math.isclose(s.peak, 4.0 / 5.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        from_phase_diffusion(omega0=2.0, delta=0.0)


def test_tabulated_requires_sane_table(tmp_path):
    with pytest.raises(ValueError):
        TabulatedSpectrum(omega=np.array([0.0, 1.0, 0.5]),
                          values=np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        TabulatedSpectrum(omega=np.array([0.0, 1.0]),
                          values=np.array([1.0, -0.5]))
    bad = tmp_path / "one_col.dat"
    bad.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError):
        load_tabulated(bad)


def test_load_tabulated_roundtrip(tmp_path):
    path = tmp_path / "spec.dat"
    path.write_text("# omega value\n-1.0 0.5\n0.0 2.0\n\n1.0 0.5\n")
    s = load_tabulated(path)
    assert np.array_equal(s.omega, [-1.0, 0.0, 1.0])
    assert np.array_equal(s.values, [0.5, 2.0, 0.5])
    assert spectral_density(s, 0.5) == 1.25
    # off-table queries read zero density
    assert spectral_density(s, 5.0) == 0.0


def test_fwhm_of_gaussian_samples():
    x = np.linspace(-5.0, 5.0, 2001)
    y = np.exp(-0.5 * x ** 2)
    assert math.isclose(fwhm_of(x, y), 2.0 * math.sqrt(2.0 * math.log(2.0)),
                        rel_tol=1e-4)
    assert math.isnan(fwhm_of(x, np.ones_like(x)))


# ----------------------------------------------------------------------
# autocorrelation kernel

def test_kernel_closed_form_at_origin_and_tail():
    s = LorentzianSpectrum(peak=2.0, fwhm=3.0)
    k = autocorrelation_kernel(s, np.array([0.0, 100.0 / 3.0]))
    assert math.isclose(k[0], 3.0, rel_tol=1e-15)      # fwhm*peak/2
    assert abs(k[1]) < 1e-15


def test_kernel_oscillates_when_detuned():
    s = LorentzianSpectrum(peak=1.0, fwhm=2.0, center=4.0)
    tau = np.linspace(0.0, 5.0, 501)
    k = autocorrelation_kernel(s, tau)
    ref = 1.0 * np.exp(-np.abs(tau)) * np.cos(4.0 * tau)
    assert np.max(np.abs(k - ref)) < 1e-12


@pytest.mark.parametrize("center", [0.0, 3.0])       # on the atomic line, detuned
def test_tabulated_kernel_matches_closed_form(center):
    lor = LorentzianSpectrum(peak=1.0, fwhm=2.0, center=center)
    tab = lorentz_table(lor, edge=2e5)
    tau = np.linspace(0.0, 10.0, 401)
    err = autocorrelation_kernel(tab, tau) - autocorrelation_kernel(lor, tau)
    assert np.max(np.abs(err)) <= 1e-5


def test_tabulated_kernel_chunks_are_bit_identical():
    tab = lorentz_table(LorentzianSpectrum(peak=1.0, fwhm=2.0), edge=2e5)
    rows = spectrum._KERNEL_CHUNK // len(tab.omega)
    # more than three chunks; tau=0 and 1e-9 take the small-tau branch
    tau = np.concatenate([[0.0, 1e-9], np.linspace(1e-3, 20.0, 3 * rows + 7)])
    whole = autocorrelation_kernel(tab, tau)
    assert np.array_equal(whole, [autocorrelation_kernel(tab, x) for x in tau])


@pytest.mark.parametrize("tau", [np.arange(200001) * 1e-3,       # solver lag grid
                                 np.linspace(1e-3, 50.0, 777)])   # lag by lag
def test_tabulated_kernel_of_a_triangle_is_exact(tau):
    # W = max(0, 1 - |s|) is its own linear interpolant on these nodes, so
    # the kernel is exactly 4 sin^2(tau/2) / (pi tau^2); the smallest lags
    # carry the cancellation of the 1/tau^2 term
    s = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    tab = TabulatedSpectrum(omega=s, values=np.maximum(0.0, 1.0 - np.abs(s)))
    exact = np.full_like(tau, 1.0 / math.pi)
    nz = tau > 0
    exact[nz] = 4.0 * np.sin(tau[nz] / 2.0) ** 2 / (math.pi * tau[nz] ** 2)
    assert np.max(np.abs(autocorrelation_kernel(tab, tau) - exact)) <= 1e-11


@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_tabulated_kernel_grid_path_matches_lag_by_lag(dt):
    tab = ref_table()
    tau = np.arange(20001) * dt
    # reversed, the lags are no longer the solver grid and go lag by lag
    lag_by_lag = autocorrelation_kernel(tab, tau[::-1])[::-1]
    assert np.max(np.abs(autocorrelation_kernel(tab, tau) - lag_by_lag)) <= 1e-13


def test_tabulated_kernel_grid_path_memory():
    # one chunk of grid phasors (218 x 1201 complex, 4.2 MB) and two
    # block-sized buffers; whole-chunk phasor and difference temporaries on
    # top of that peaked at 14.9 MB
    tab = ref_table()
    tau = np.arange(10001) * 1e-3
    tracemalloc.start()
    try:
        autocorrelation_kernel(tab, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"grid kernel peak {peak / 1e6:.2f} MB")
    assert peak <= 8e6


@pytest.mark.parametrize("tau", [[math.nan], [math.inf], [0.5, math.nan]])
@pytest.mark.parametrize("line", [
    LorentzianSpectrum(peak=1.0, fwhm=2.0),
    TabulatedSpectrum(omega=[-2.0, 0.0, 2.0], values=[0.0, 1.0, 0.0]),
])
def test_kernel_refuses_non_finite_lags(line, tau):
    with pytest.raises(ValueError):
        autocorrelation_kernel(line, tau)


def test_kernel_refuses_undecayed_table():
    x = np.linspace(-5.0, 5.0, 101)
    tab = TabulatedSpectrum(omega=x, values=np.ones_like(x))
    with pytest.raises(SpectrumSupportError):
        autocorrelation_kernel(tab, np.linspace(0.0, 1.0, 11))


def test_kernel_to_spectrum_roundtrip():
    lor = LorentzianSpectrum(peak=1.0, fwhm=2.0)
    tau = np.arange(0.0, 25.0 + 1e-12, 5e-4)
    ker = autocorrelation_kernel(lor, tau)
    omega = np.linspace(-10.0, 10.0, 201)
    rec = spectrum_from_kernel(ker, tau, omega)
    truth = spectral_density(lor, omega)
    assert np.max(np.abs(rec - truth) / truth) <= 1e-5


# ----------------------------------------------------------------------
# spectral estimation from phase trajectories

def test_transform_of_exact_autocorrelation():
    # analytic e^{-delta tau/2} in, Lorentzian of the right height out
    delta, omega0 = 2.0, 2.0
    tau = np.arange(0.0, 20.0 + 1e-12, 1e-3)
    g = np.exp(-0.5 * delta * tau)
    omega = np.linspace(-8.0, 8.0, 161)
    vals = spectrum_from_autocorrelation(g, tau, omega, omega0)
    truth = spectral_density(from_phase_diffusion(omega0, delta), omega)
    assert np.max(np.abs(vals - truth) / truth.max()) <= 1e-6


def test_wk_estimate_statistics_and_window():
    t, phi = simulate_phases(2.0, 512, 30.0, 0.01, seed=6)
    omega = np.linspace(-6.0, 6.0, 121)
    est = wk_estimate(phi, 0.01, 2.0, omega, max_lag=12.0)
    assert est.window == pytest.approx(12.0)
    assert est.n_batches == 16
    assert est.stderr.shape == est.values.shape
    assert np.all(est.stderr > 0)
    assert not est.bias_warning
    # estimate is non-negative up to statistical noise
    assert np.all(est.values + 3.0 * est.stderr >= 0.0)
    truth = spectral_density(from_phase_diffusion(2.0, 2.0), omega)
    ipk = int(np.argmax(truth))
    assert abs(est.values[ipk] - truth[ipk]) <= 4.0 * est.stderr[ipk]


def test_wk_estimate_flags_truncated_window():
    # the coherence barely decays over the trajectory: leakage is real
    t, phi = simulate_phases(0.2, 64, 5.0, 0.01, seed=6)
    est = wk_estimate(phi, 0.01, 1.0, np.array([0.0]))
    assert est.bias_warning
    assert est.truncation_estimate > 0.1


def test_wk_estimate_stderr_scales_inverse_sqrt_n():
    t, phi = simulate_phases(2.0, 2048, 30.0, 0.01, seed=77)
    grid = np.array([0.0])
    full = wk_estimate(phi, 0.01, 2.0, grid, max_lag=12.0).stderr[0]
    subs = [wk_estimate(phi[512 * k:512 * (k + 1)], 0.01, 2.0, grid,
                        max_lag=12.0).stderr[0] for k in range(4)]
    pooled = math.sqrt(float(np.mean(np.square(subs))))
    # quartering the ensemble should double the error, within a factor 1.5
    assert 2.0 / 1.5 <= pooled / full <= 2.0 * 1.5


def _trapezoid_oracle(f, tau, x):
    # the per-omega quadrature the matrix form replaced
    return np.array([np.trapezoid((f * np.exp(-1j * w * tau)).real, tau) for w in x])


@pytest.mark.parametrize("chunk", [1 << 18, 500])      # one omega chunk, many
def test_transforms_match_per_omega_quadrature(monkeypatch, chunk):
    monkeypatch.setattr(spectrum, "_KERNEL_CHUNK", chunk)
    tau = np.concatenate([np.linspace(0.0, 2.0, 81), np.linspace(2.1, 9.0, 70)])
    g = np.exp((-0.7 + 1.3j) * tau) + 0.2 * np.exp(-2.0 * tau)
    omega = np.linspace(-6.0, 6.0, 97)
    for got, want in [
        (spectrum_from_kernel(g.real, tau, omega - 0.4),
         _trapezoid_oracle(g.real, tau, omega - 0.4)),
        (spectrum_from_kernel(g.real, tau, 1.5), _trapezoid_oracle(g.real, tau, [1.5])),
        (spectrum_from_autocorrelation(g, tau, omega, 1.0),
         0.5 * _trapezoid_oracle(g, tau, omega)),
        (spectrum_from_autocorrelation(np.stack([g, 2 * g]), tau, omega, 1.0)[1],
         _trapezoid_oracle(g, tau, omega)),
    ]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    assert [spectrum._next_fast_len(n) for n in range(1, 30001)] == [
        next_fast_len(n) for n in range(1, 30001)]


@pytest.mark.parametrize("max_lag", [None, 4])
def test_batch_autocorrelation_is_the_linear_lagged_mean(max_lag):
    rows = np.random.default_rng(3).normal(0.0, 2.0, (3, 17))
    k_max = 16 if max_lag is None else max_lag
    s = np.exp(1j * rows)
    want = [np.mean(s[:, k:] * np.conj(s[:, :17 - k])) for k in range(k_max + 1)]
    got = spectrum._batch_autocorrelation(rows, k_max)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
def test_half_angle_phasor_is_accurate_everywhere():
    # |phi| from 1e-20 to 1e308 at random exponents, plus the edge cases;
    # libm cos and sin err by at most 5.6e-17 here, the half-angle form by
    # 3.5e-16, and a formula that loses a few more bits fails the bound
    rng = np.random.default_rng(11)
    mag = rng.uniform(1.0, 10.0, 400_000) * 10.0 ** rng.uniform(-20.0, 307.0, 400_000)
    big = np.finfo(float).max
    phi = np.concatenate([rng.choice([-1.0, 1.0], len(mag)) * mag,
                          rng.uniform(-40.0, 40.0, 400_000),
                          [0.0, -0.0, math.pi, -math.pi, big, -big]])
    cos, sin = np.empty_like(phi), np.empty_like(phi)
    spectrum._phasor(np.multiply(phi, 0.5), cos, sin)
    assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
    exact = phi.astype(np.longdouble)
    assert np.max(np.abs(cos - np.cos(exact))) <= 4e-16
    assert np.max(np.abs(sin - np.sin(exact))) <= 4e-16
    assert np.array_equal(np.signbit(sin[-6:-4]), [False, True])
    assert np.array_equal(cos[-6:-4], [1.0, 1.0])
    # the cosine alone, written over its own half angle, is the same cosine
    alone = np.multiply(phi, 0.5)
    spectrum._phasor(alone, alone)
    assert np.array_equal(alone, cos)


@pytest.mark.parametrize("n_rows", [7, 9])
def test_batch_autocorrelation_does_not_depend_on_the_pass_size(monkeypatch, n_rows):
    # 7 rows at 3 a pass leave a last pass of 1, 9 rows none
    rows = np.random.default_rng(4).normal(0.0, 3.0, (n_rows, 50)).cumsum(axis=1)
    want = spectrum._batch_autocorrelation(rows, 20)
    size = spectrum._next_fast_len(50 + 20)
    for per_pass in (1, 3):
        monkeypatch.setattr(spectrum, "_KERNEL_CHUNK", per_pass * size)
        got = spectrum._batch_autocorrelation(rows, 20)
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_wk_estimate_memory_stays_below_the_input():
    _, phi = simulate_phases(2.0, 512, 30.0, 0.01, seed=6)
    tracemalloc.start()
    try:
        wk_estimate(phi, 0.01, 2.0, np.linspace(-6.0, 6.0, 121), max_lag=12.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"wk_estimate peak {peak / phi.nbytes:.2f} x phi.nbytes")
    assert peak < phi.nbytes


def test_wk_estimate_memory_does_not_grow_with_paths():
    # rows pass through one buffer of about _KERNEL_CHUNK complex elements,
    # so four times the paths may at most fill that buffer; holding a whole
    # batch's spectra grew the peak by 8.4 MB from 512 to 2048 paths
    peaks = {}
    for n_traj in (512, 2048):
        _, phi = simulate_phases(2.0, n_traj, 30.0, 0.01, seed=6)
        tracemalloc.start()
        try:
            wk_estimate(phi, 0.01, 2.0, np.linspace(-6.0, 6.0, 121), max_lag=12.0)
            peaks[n_traj] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2048] - peaks[512] < 16 * spectrum._KERNEL_CHUNK, peaks


@pytest.mark.parametrize("tau", [[0.0, -1.0, 2.0], [0.0, 1.0, 1.0],
                                 [-1.0, 0.0, 1.0], [0.0, 1.0, math.nan]])
def test_transforms_refuse_bad_lag_grids(tau):
    with pytest.raises(ValueError):
        spectrum_from_autocorrelation(np.ones(3), tau, [0.0], 1.0)
    with pytest.raises(ValueError):
        spectrum_from_kernel(np.ones(3), tau, [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transforms_refuse_non_finite_frequencies(bad):
    # each of these returned NaN values without complaint
    tau, g = np.array([0.0, 0.5, 1.0]), np.ones(3)
    for call in (lambda: spectrum_from_autocorrelation(g, tau, [0.0, bad], 1.0),
                 lambda: spectrum_from_autocorrelation(g, tau, [0.0], bad),
                 lambda: spectrum_from_kernel(g, tau, [bad])):
        with pytest.raises(ValueError, match="finite"):
            call()


def _phases_with(value):
    phi = np.zeros((4, 50))
    phi[2, 30] = value
    return phi


@pytest.mark.parametrize("bad", [
    dict(phi=np.zeros((1, 50)), dt=0.01),
    dict(phi=np.zeros((4, 1)), dt=0.01),
    dict(phi=np.zeros((4, 50)), dt=0.0),
    dict(phi=np.zeros((4, 50)), dt=0.01, max_lag=1e-6),
    dict(phi=np.zeros((4, 50)), dt=math.nan),
    dict(phi=np.zeros((4, 50)), dt=math.inf),
    dict(phi=np.zeros((4, 50)), dt=0.01, max_lag=math.inf),
    dict(phi=np.zeros((4, 50)), dt=0.01, max_lag=math.nan),
    dict(phi=_phases_with(math.nan), dt=0.01),
    dict(phi=_phases_with(-math.inf), dt=0.01),
    dict(phi=np.zeros((4, 50)), dt=0.01, omega_grid=np.array([0.0, math.nan])),
    dict(phi=np.zeros((4, 50)), dt=0.01, omega0=math.inf),
])
def test_wk_estimate_rejects_bad_input(monkeypatch, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("the FFT ran before the input was checked")

    monkeypatch.setattr(spectrum, "fft", no_work)
    with pytest.raises(ValueError):
        wk_estimate(**{"omega0": 1.0, "omega_grid": np.array([0.0]), **bad})
