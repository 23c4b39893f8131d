"""Two-level atoms in broadband (phase-diffusing) light.

The package connects a stochastic trajectory model of the optical Bloch
equations to the hierarchy of reduced descriptions (memory-kernel equation,
effective Bloch equations, modified and plain rate equations) and provides
the analysis tools to decide which reduction is valid where.
"""

from .analysis import (AnalysisReport, ModeSpectrum, QuadratureError,
                       RegimeFlags, build_report, eigenvalues, lorentz_line,
                       measured_oscillation_frequency, steady_state,
                       thresholds, zeta_lorentzian, zeta_numeric, zeta_peaked)
from .fieldsim import (DecorrelationResult, EnsembleTrace, IntegratorError,
                       PhaseAutocorrelation, RngStream, TrajectoryTrace,
                       decorrelation_residual, gaussian_pair,
                       phase_autocorrelation, run_ensemble, run_trajectory,
                       simulate_phases)
from .kinetics import (CollisionParams, KineticTrace, StepSizeError,
                       adiabatic_series_check, ere_exact, integrate_effective_bloch,
                       integrate_ere, integrate_generalized_ere,
                       integrate_memory_kernel, integrate_modified_ere)
from .params import CoherentLimitError, DipoleParams, SystemParams, einstein_b
from .spectrum import (LorentzianSpectrum, SpectrumModel, SpectrumSupportError,
                       TabulatedSpectrum, WkEstimate, autocorrelation_kernel,
                       bw21_of, energy_density, from_phase_diffusion, fwhm_of,
                       load_tabulated, spectral_density,
                       spectrum_from_autocorrelation, spectrum_from_kernel,
                       width_hint, wk_estimate)

__version__ = "0.1.0"
