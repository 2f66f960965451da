"""Rate functions and higher-order tail expansions for additive functionals
of ergodic Markov models: tilted-generator spectra, Legendre transforms,
saddle-line inversion, coefficient fitting, and importance-sampled
cross-validation."""

from .discretize import (DEFAULT_GRID_N, InvariantDensity, PeriodicGrid,
                         clear_caches, invariant_density, operators_for)
from .expansion import (CoeffFit, TailCurve, TestFunction, bump_window,
                        exact_tail, extract_coefficients, gaussian_window,
                        leading_coefficient, mgf, one_sided_exponential,
                        tail_curve, weak_expectation)
from .model import (DiscreteChainSpec, EvaluationFrame, TorusDiffusionSpec,
                    ValidationReport, center_observable, checkerboard_chain,
                    gaussian_baseline, gradient_drift_model, mathieu_model,
                    noisy_two_state_chain, two_state_pm1_chain, validate_spec)
from .rate import RatePoint, RateTable, rate_point, rate_table, solve_theta
from .simulate import (Corrector, ISEstimate, TrajectoryBatch, corrector,
                       decorrelation_check, effective_diffusivity,
                       estimate_tail_is, estimate_tail_mc, euler_maruyama,
                       tilted_dynamics)
from .spectral import DecayProfile, cgf, cgf_derivatives, decay_profile
from .verify import (ChainTailOracle, ConditionReport, ConditionVerdict,
                     brute_force_chain_tail, chain_distribution,
                     projector_time_independence, run_condition_suite)

__version__ = "0.1.0"
