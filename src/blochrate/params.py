"""Physical parameters of a driven two-level atom and their closed-form algebra.

Rates are expressed in units where time is measured in 1/A (the spontaneous
decay rate), so A=1 in typical runs. The field is resonant with the atomic
transition; detuned spectra are handled by the tabulated-spectrum path in the
analysis module.

Symbols used throughout the package:

    a           spontaneous inversion decay rate (> 0)
    gamma_dc    dephasing collision rate (>= 0)
    delta       FWHM of the Lorentzian light spectrum; also the phase
                diffusion coefficient of the stochastic field model
    omega0      Rabi frequency magnitude (>= 0)
    gamma_perp  coherence decay rate, a/2 + gamma_dc
    gamma_eff   effective coherence decay under broadband driving,
                gamma_perp + delta/2
    zeta        overlap of the light spectrum with the atomic lineshape,
                delta/(delta + 2*gamma_perp) for the resonant Lorentzian
    bw21        stimulated rate coefficient, omega0**2/delta
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass


class CoherentLimitError(ValueError):
    """Raised when a quantity undefined at delta=0 (coherent light) is requested."""


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def grid_steps(t: float, dt: float, name: str = "t_end", *,
               positive: bool = False) -> int:
    """Number of steps of size dt from 0 to t on the uniform grid k*dt.

    Raises ValueError unless dt > 0 and t >= 0 are finite and t lies on the
    grid to a relative 1e-9; ``positive`` also refuses t = 0 (zero steps).
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {t!r}")
    steps = int(round(t / dt))
    if (positive and steps == 0) or abs(steps * dt - t) > 1e-9 * max(1.0, t):
        kind = "a positive" if positive else "a"
        raise ValueError(f"{name}={t} is not {kind} multiple of dt={dt}")
    return steps


def check_seed(seed: int, name: str = "seed") -> int:
    """Return ``seed`` as an int; ValueError unless 0 <= seed < 2**64.

    Also checks the other half of a stream key, a trajectory index (pass
    ``name="index"``), which has the same range.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    return seed


def _check_initial_state(**state) -> None:
    """Refuse a start off the Bloch ball: every value finite, |n0| <= 1, |sigma0| <= 1/2.

    One rule for the ensemble engine (n0, sigma0, phi0) and the kinetic
    solvers (n0, and q0 for the effective Bloch equations), so the library
    and the CLI refuse the same starts. Such a start would run every step
    and then fail a later check, whose advice (reduce dt) would be wrong.
    """
    state = {k: complex(v) if k == "sigma0" else float(v) for k, v in state.items()}
    got = ", ".join(f"{k}={v!r}" for k, v in state.items())
    if not all(map(cmath.isfinite, state.values())):
        raise ValueError(f"initial state must be finite, got {got}")
    if abs(state["n0"]) > 1.0 or abs(state.get("sigma0", 0.0)) > 0.5:
        bounds = "|n0| <= 1" + (" and |sigma0| <= 1/2" if "sigma0" in state else "")
        raise ValueError(f"initial state must have {bounds}, got {got}")


@dataclass(frozen=True)
class SystemParams:
    """Rates defining one simulation scenario. Immutable; shared freely across workers."""

    a: float
    delta: float
    omega0: float
    gamma_dc: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "delta", "omega0", "gamma_dc"):
            _require_finite(name, getattr(self, name))
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be non-negative, got {self.omega0}")
        if self.gamma_dc < 0:
            raise ValueError(f"gamma_dc must be non-negative, got {self.gamma_dc}")

    @property
    def gamma_perp(self) -> float:
        return 0.5 * self.a + self.gamma_dc

    @property
    def gamma_eff(self) -> float:
        return self.gamma_perp + 0.5 * self.delta

    @property
    def zeta(self) -> float:
        """Spectral overlap coefficient in [0, 1); 0 in the coherent limit."""
        return self.delta / (self.delta + 2.0 * self.gamma_perp)

    @property
    def bw21(self) -> float:
        """Stimulated rate coefficient omega0**2/delta. Undefined for coherent light."""
        if self.delta == 0:
            raise CoherentLimitError(
                "bw21 is undefined in the coherent limit (delta=0); "
                "work with omega0 directly"
            )
        return self.omega0 ** 2 / self.delta

    @property
    def zeta_bw21(self) -> float:
        # zeta*bw21 written in its cancelled form: finite for every delta >= 0.
        return self.omega0 ** 2 / (self.delta + 2.0 * self.gamma_perp)
