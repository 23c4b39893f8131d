"""Deterministic solvers for the reduced models of the mean inversion.

Every model here describes the ensemble-mean inversion n_bar(t) of two-level
atoms pumped by broadband light and damped by spontaneous emission at rate a.
In order of increasing fidelity to the stochastic dynamics:

  integrate_ere              dn/dt = -a(n+1) - 2*zeta*bw21*n
  integrate_generalized_ere  adds radiative collisions (gamma_21, gamma_12)
  integrate_modified_ere     rate switched on over the memory time 1/gamma_eff
  integrate_effective_bloch  two-variable system with the effective coherence q
  integrate_memory_kernel    full integro-differential equation with history

Every solver refuses a start off the Bloch ball (a non-finite n0 or q0, or
|n0| > 1) with ValueError before any step, by the rule the stochastic engine
uses. All solvers use the classical fixed-step 4th-order one-step method on a
uniform grid (the memory-kernel model, whose right side depends on history,
uses a 2nd-order predictor-corrector with trapezoid history quadrature).

A model with constant coefficients steps by an affine map with a fixed
point in closed form. One block solver, _affine_solve, applies the map's
powers about that point to blocks of steps, with no per-step Python work:
for the rate equations (1x1), the effective Bloch pair (2x2) and the memory
kernel on a Lorentzian line or with no drive (4x4). Only the modified rate
equation, whose pump switches on in time, and a tabulated memory kernel,
whose history is summed directly over the window where the damped kernel
exceeds 1e-12 of its peak, keep a step loop.
A tabulated kernel is evaluated once per solve, on the solver's uniform lag
grid, where spectrum.autocorrelation_kernel needs one complex product per
(lag, table node) and no per-lag cos or sin. On a 1201-node table at
dt=1e-4 (1e5 steps, 2-core x86 host) that is about 0.6 s of a 1.5 s solve;
the history sum is the rest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, _check_initial_state, time_grid
from .spectrum import (LorentzianSpectrum, SpectrumModel,
                       autocorrelation_kernel, from_phase_diffusion)

__all__ = [
    "KineticTrace", "CollisionParams", "StepSizeError",
    "integrate_ere", "integrate_modified_ere", "integrate_effective_bloch",
    "integrate_memory_kernel", "integrate_generalized_ere",
]


class StepSizeError(ValueError):
    """dt too large for the fastest rate in the model."""


@dataclass
class KineticTrace:
    """Solution samples on the uniform grid t[k] = k*dt.

    q holds the effective coherence for the two-variable model, None
    otherwise.
    """

    t: np.ndarray
    n: np.ndarray
    q: np.ndarray | None = None


@dataclass(frozen=True)
class CollisionParams:
    """Radiative collision rates: gamma_21 downward, gamma_12 upward.

    gamma_12 <= gamma_21 (a negative-temperature bath is rejected). The
    Boltzmann ratio gamma_12/gamma_21 = exp(-hbar*omega21/(kB*T)) is
    dimensionless, so the rates may be given in any consistent unit.
    """

    gamma_21: float = 0.0
    gamma_12: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma_21) and self.gamma_21 >= 0):
            raise ValueError("gamma_21 must be finite and >= 0")
        if not (math.isfinite(self.gamma_12) and self.gamma_12 >= 0):
            raise ValueError("gamma_12 must be finite and >= 0")
        if self.gamma_12 > self.gamma_21:
            raise ValueError("gamma_12 > gamma_21 implies a negative temperature")

    def gamma_parallel(self, a: float) -> float:
        """Total inversion damping rate a + gamma_21 + gamma_12."""
        return a + self.gamma_21 + self.gamma_12

    def n_equilibrium(self, a: float) -> float:
        """Dark steady state -1 + 2*gamma_12/gamma_parallel."""
        return -1.0 + 2.0 * self.gamma_12 / self.gamma_parallel(a)


# ----------------------------------------------------------------------
# step-size plumbing

def _check_step(dt: float, rate: float, model: str) -> None:
    # 0.1 per fastest rate keeps the one-step method well inside its
    # stability region and its truncation error below the test tolerances.
    if dt * rate > 0.1 * (1.0 + 1e-12):
        raise StepSizeError(
            f"{model}: dt={dt:g} too large for rate {rate:g}; "
            f"need dt <= {0.1 / rate:.3g}"
        )


# ----------------------------------------------------------------------
# affine step maps, solved about their fixed point

def _rk4_map(rates: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of dx/dt = rates @ x: the degree-4 Taylor polynomial of
    exp(dt*rates), in Horner form (on a 1x1 system, RK4's growth factor)."""
    z = dt * rates
    eye = np.eye(len(z))
    m = eye / 6.0 + z / 24.0
    for c in (0.5, 1.0, 1.0):
        m = c * eye + np.einsum("ik,kl->il", z, m)
    return m


def _affine_solve(m, x_inf, x0, steps: int, keep: int) -> np.ndarray:
    """x_inf + m^k (x0 - x_inf), k = 0..steps, for the first ``keep`` components.

    This is the solution of the affine map x' = m x + c with fixed point
    x_inf, worked about that point: a start at x_inf stays there exactly.
    With B = ceil(sqrt(steps + 1)) the powers m^0 ... m^B take B small
    products, the block starts m^(bB) (x0 - x_inf) another steps/B, and each
    component is one einsum over (blocks, B). No product goes through BLAS,
    whose buffers would add to the solve's resident memory. A non-finite
    value (a diverging map) is left for the caller to find.
    """
    x_inf = np.asarray(x_inf, dtype=float)
    dim = len(x_inf)
    block = math.isqrt(steps) + 1                  # ceil(sqrt(steps + 1))
    blocks = -(-(steps + 1) // block)
    powers = np.empty((block + 1, dim, dim))
    powers[0] = np.eye(dim)
    for j in range(block):
        np.einsum("ik,kl->il", m, powers[j], out=powers[j + 1])
    starts = np.empty((blocks, dim))
    starts[0] = np.subtract(x0, x_inf)
    for b in range(1, blocks):
        np.einsum("ik,k->i", powers[block], starts[b - 1], out=starts[b])
    x = np.empty((keep, blocks, block))
    np.einsum("bk,jik->ibj", starts, powers[:block, :keep], out=x)
    x += x_inf[:keep, None, None]
    return x.reshape(keep, -1)[:, :steps + 1]


# ----------------------------------------------------------------------
# rate-equation family

def integrate_ere(params: SystemParams, t_end: float, dt: float,
                  n0: float = -1.0) -> KineticTrace:
    """Plain rate equation dn/dt = -a(n+1) - 2*zeta*bw21*n.

    This is the generalized rate equation without radiative collisions.
    """
    return _rate_equation(params, CollisionParams(), t_end, dt, n0, "ere")


def integrate_generalized_ere(params: SystemParams, coll: CollisionParams,
                              t_end: float, dt: float,
                              n0: float = -1.0) -> KineticTrace:
    """Rate equation with radiative collisions.

    dn/dt = -gamma_par*(n - n_eq) - 2*zeta*bw21*n, where the collisions
    broaden the coherence decay, gamma_perp = gamma_par/2 + gamma_dc, and
    zeta*bw21 = omega0^2/(delta + 2*gamma_perp) uses that broadened width.
    With gamma_21 = gamma_12 = 0 it is the plain rate equation, integrate_ere.
    """
    return _rate_equation(params, coll, t_end, dt, n0, "generalized-ere")


def _rate_equation(params, coll, t_end, dt, n0, model):
    """The generalized rate equation; ``model`` names it in a step refusal."""
    _check_initial_state(n0=n0)
    t = time_grid(t_end, dt, positive=True)
    g_par = coll.gamma_parallel(params.a)
    n_eq = coll.n_equilibrium(params.a)
    gamma_perp = 0.5 * g_par + params.gamma_dc
    zeta_bw21 = params.omega0 ** 2 / (params.delta + 2.0 * gamma_perp)
    rate = g_par + 2.0 * zeta_bw21
    _check_step(dt, rate, model)
    m = _rk4_map(np.array([[-rate]]), dt)
    (n,) = _affine_solve(m, [g_par * n_eq / rate], [n0], len(t) - 1, 1)
    return KineticTrace(t=t, n=n)


def integrate_modified_ere(params: SystemParams, t_end: float, dt: float,
                           n0: float = -1.0) -> KineticTrace:
    """Rate equation with the pump switched on over the memory time.

    dn/dt = -a(n+1) - 2*zeta*bw21*n*(1 - exp(-gamma_eff*t)). The transient
    factor removes the rate equation's spurious linear rise at t ~< 1/gamma_eff.
    """
    _check_initial_state(n0=n0)
    t = time_grid(t_end, dt, positive=True)
    a = params.a
    k2 = 2.0 * params.zeta_bw21
    g = params.gamma_eff
    _check_step(dt, a + k2, "modified-ere")

    def f(tk: float, nk: float) -> float:
        return -a * (nk + 1.0) - k2 * nk * (1.0 - math.exp(-g * tk))

    n = np.empty(len(t))
    n[0] = n0
    h = dt
    for k in range(len(t) - 1):
        tk = t[k]
        nk = n[k]
        k1 = f(tk, nk)
        k2_ = f(tk + 0.5 * h, nk + 0.5 * h * k1)
        k3 = f(tk + 0.5 * h, nk + 0.5 * h * k2_)
        k4 = f(tk + h, nk + h * k3)
        n[k + 1] = nk + (h / 6.0) * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)
    return KineticTrace(t=t, n=n)


# ----------------------------------------------------------------------
# effective Bloch equations

def integrate_effective_bloch(params: SystemParams, t_end: float, dt: float,
                              n0: float = -1.0, q0: float = 0.0) -> KineticTrace:
    """Two-variable reduction: the effective coherence q trails n.

    dn/dt = -a(n+1) - 2*zeta*bw21*q
    dq/dt = gamma_eff*(n - q)

    RK4's step is a 2x2 affine map about n = q = -a/(a + 2*zeta*bw21), run
    by _affine_solve: n and q stay within 1e-14 of the step loop.
    """
    _check_initial_state(n0=n0, q0=q0)
    t = time_grid(t_end, dt, positive=True)
    a = params.a
    k2 = 2.0 * params.zeta_bw21
    g = params.gamma_eff
    # dt must resolve every rate, including the relaxation-oscillation
    # frequency sqrt(gamma_eff*(a + 2 zeta bw21)) which can exceed both decay
    # rates when the pump is strong.
    fastest = max(a + k2, g, math.sqrt(g * (a + k2)))
    _check_step(dt, fastest, "effective-bloch")

    m = _rk4_map(np.array([[-a, -k2], [g, -g]]), dt)
    n_inf = -a / (a + k2)
    n, q = _affine_solve(m, [n_inf, n_inf], [n0, q0], len(t) - 1, 2)
    return KineticTrace(t=t, n=n, q=q)


# ----------------------------------------------------------------------
# memory-kernel integro-differential equation

def integrate_memory_kernel(spectrum: SpectrumModel | None,
                            params: SystemParams, t_end: float, dt: float,
                            n0: float = -1.0) -> KineticTrace:
    """Full non-Markovian model: the pump rate remembers the inversion.

    dn/dt = -a(n+1) - 2 * Int_0^t n(t') I(t-t') exp(-gamma_perp (t-t')) dt'

    with I the field autocorrelation kernel of ``spectrum`` (pass None to use
    the Lorentzian implied by params). History integrals use trapezoid
    quadrature on the solver grid. For a Lorentzian, exp(-gamma_perp tau) I(tau)
    is Re(g0 rho^m) on the grid, so the history sum follows an exact
    O(1)-per-step recursion over the whole history, with no window. A
    tabulated spectrum's history is summed directly, O(window) per step, over
    the window where exp(-gamma_perp tau)|I(tau)| stays above 1e-12 of its
    tau=0 value; the kernel is evaluated only out to tau = (ln(1e12) + 1)/
    gamma_perp, where that window must end. Only a and gamma_perp are read
    from params when a spectrum is given; the drive strength lives entirely
    in the spectrum.

    Second-order predictor-corrector stepping (the history dependence makes
    classic one-step stage evaluation inapplicable); at dt=1e-4 the error
    stays below 1e-6 for unit-scale rates. On a Lorentzian line, and with no
    drive (spectrum None, omega0 = 0: the map with g0 = 0), one step is an
    affine map of (n, J, history), run by _lorentzian_solve in blocks of
    about sqrt(steps) steps: 1e5 steps take about 4 ms on a 2-core x86 host
    (32-42 ms stepped one at a time in Python), and n differs from the step
    loop by about 1e-14 at 1e5 steps and 1e-13 at 1e6 (the tests allow
    1e-12). Only a tabulated kernel runs the direct sum (_direct_sum_solve),
    over a window of at least one step. A diverging solve raises
    StepSizeError naming the first step whose n is not finite, the same step
    on either path. The Lorentzian solve's memory is about 25 bytes a step
    while the grid lies within the kernel's horizon (t, the damped kernel
    and n) and 17 past it: 2.6 MB of tracemalloc peak at 1e5 steps and 22 MB
    at 1e6 for the criterion-5 line. A non-finite n0 or |n0| > 1 is refused
    with ValueError before any step.
    """
    _check_initial_state(n0=n0)
    t = time_grid(t_end, dt, positive=True)
    a = params.a
    gp = params.gamma_perp
    if gp <= 0:
        # unreachable through SystemParams (a > 0), kept as a guard: without
        # coherence decay a non-decaying kernel would need unbounded history
        raise ValueError("memory window unbounded: gamma_perp must be positive")

    steps = len(t) - 1
    if spectrum is None:
        if params.omega0 == 0:
            # no drive: the Lorentzian map with g0 = 0, a free decay to -1
            _check_step(dt, max(a, gp), "memory-kernel")
            return KineticTrace(t=t, n=_lorentzian_solve(0j, a, 0.0, dt, float(n0), steps))
        spectrum = from_phase_diffusion(params.omega0, params.delta)
    # |I(tau)| <= I(0) for a non-negative spectrum, so past this horizon the
    # damped kernel is below e^-1 * 1e-12 of its peak: outside the window
    horizon = min(len(t), int((math.log(1e12) + 1.0) / (gp * dt)) + 2)
    g_full = autocorrelation_kernel(spectrum, t[:horizon])
    damp = np.multiply(-gp, t[:horizon])
    g_full *= np.exp(damp, out=damp)
    del damp                       # the solve holds only t, g_full and n

    peak = abs(g_full[0])
    # the last index still above the threshold, found on the boolean mask;
    # at least one step, so that dt must resolve the kernel's first step
    alive = np.abs(g_full) >= 1e-12 * peak
    window = max(1, horizon - 1 - int(np.argmax(alive[::-1])))
    g = g_full[:window + 1]
    g0 = float(g[0])

    markov_rate = a + 2.0 * float(np.trapezoid(g, dx=dt))
    _check_step(dt, max(markov_rate, gp), "memory-kernel")
    # trapezoid history is only second order if dt resolves the kernel
    # itself; its per-step variation bounds decay and oscillation at once
    change = np.diff(g)
    kernel_step = float(np.max(np.abs(change, out=change))) / peak
    del change
    if kernel_step > 0.1 * (1.0 + 1e-12):
        raise StepSizeError(
            f"memory-kernel: dt={dt:g} under-resolves the kernel "
            f"(per-step change {kernel_step:.3g} of peak, limit 0.1)")

    if isinstance(spectrum, LorentzianSpectrum):
        # the damped kernel is Re(g0 * rho**m) on the grid: no window needed
        rho = cmath.exp(complex(-(0.5 * spectrum.fwhm + gp) * dt,
                                spectrum.center * dt))
        with np.errstate(over="ignore", invalid="ignore"):
            n = _lorentzian_solve(rho, a, g0, dt, float(n0), steps)
        if np.isfinite(n).all():
            return KineticTrace(t=t, n=n)
        # diverged: the direct sum names the step at which it stops
    return KineticTrace(t=t, n=_direct_sum_solve(g, a, dt, float(n0), steps))


def _lorentzian_solve(rho: complex, a: float, g0: float, dt: float,
                      n0: float, steps: int) -> np.ndarray:
    """integrate_memory_kernel's n for a Lorentzian line, or none (g0 = 0).

    The trapezoid history sum of the damped kernel Re(g0 * rho**m) obeys
    hist[k+1] = rho*(hist[k] + n[k]), with the far-edge half weight folded
    into hist[0] = -n[0]/2. A predictor-corrector step is then affine in the
    state x = (n, j, Re hist, Im hist), with its matrix read off ``step`` at
    0 and at the unit vectors. Its fixed point is hist = rho*n/(1 - rho),
    j = S*n and n = -a/(a + 2S), with S = dt*g0*(Re(rho/(1 - rho)) + 1/2),
    so n = -1 exactly with no drive; _affine_solve works about it.
    """
    neg_a, half_g0, half_dt, end_g0 = -a, 0.5 * g0, 0.5 * dt, dt * 0.5 * g0

    def step(nk, j_curr, hist_re, hist_im):
        f_k = neg_a * (nk + 1.0) - 2.0 * j_curr
        n_pred = nk + dt * f_k
        hist = rho * (complex(hist_re, hist_im) + nk)
        j_pred = dt * (g0 * hist.real + half_g0 * n_pred)
        n_next = nk + half_dt * (f_k + (neg_a * (n_pred + 1.0) - 2.0 * j_pred))
        return n_next, j_pred + end_g0 * (n_next - n_pred), hist.real, hist.imag

    origin = step(0.0, 0.0, 0.0, 0.0)
    m = np.column_stack([np.subtract(step(*unit), origin)
                         for unit in np.eye(4).tolist()])
    ratio = rho / (1.0 - rho)
    s = dt * g0 * (ratio.real + 0.5)
    n_inf = -a / (a + 2.0 * s)
    hist_inf = ratio * n_inf
    x_inf = (n_inf, s * n_inf, hist_inf.real, hist_inf.imag)
    return _affine_solve(m, x_inf, (n0, 0.0, -0.5 * n0, 0.0), steps, 1)[0]


def _direct_sum_solve(g: np.ndarray, a: float, dt: float, n0: float,
                      steps: int) -> np.ndarray:
    """integrate_memory_kernel's n for the damped kernel ``g`` on its window.

    Each step sums the history directly over the last len(g) - 1 steps, with
    the trapezoid's half weight at the far edge: one np.dot a step, with the
    rest of the step on Python floats, the constants hoisted in the order
    the formula evaluates them and n stored as raw doubles. A divergence is
    found by one scan after the loop; the initial state is finite, so the
    first non-finite value is the step at which a step-by-step check would
    have stopped.
    """
    window = len(g) - 1
    g0 = float(g[0])
    neg_a, half_g0, half_dt, end_g0 = -a, 0.5 * g0, 0.5 * dt, dt * 0.5 * g0
    grev = g[::-1].copy()          # contiguous reversed copy for fast dots
    kern = memoryview(g)
    n = np.empty(steps + 1)
    out = memoryview(n)
    nk = n0
    out[0] = nk
    j_curr = 0.0                   # trapezoid history integral at step k - 1
    with np.errstate(over="ignore", invalid="ignore"):   # past a divergence
        for k in range(1, steps + 1):
            f_k = neg_a * (nk + 1.0) - 2.0 * j_curr
            n_pred = nk + dt * f_k
            j0 = k - window if k > window else 0
            lead = float(np.dot(n[j0:k], grev[window - k + j0:window]))
            lead -= 0.5 * out[j0] * kern[k - j0]
            j_pred = dt * (lead + half_g0 * n_pred)
            nk = nk + half_dt * (f_k + (neg_a * (n_pred + 1.0) - 2.0 * j_pred))
            out[k] = nk
            # J with the corrected endpoint, for the next step
            j_curr = j_pred + end_g0 * (nk - n_pred)
    out.release()
    kern.release()
    finite = np.isfinite(n)
    if not finite.all():
        raise StepSizeError(f"memory-kernel: diverged at step {np.argmin(finite)}")
    return n
