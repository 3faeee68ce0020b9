"""Predator-prey dynamics with logistic prey growth.

One model, four ways to advance it: a fixed-step RK4 reference, explicit
Euler, the positivity-preserving Mickens nonstandard scheme, and a
Caputo-order predictor-corrector.  Stability classification and
theorem-backed positivity/conservation checks come along for the ride.
"""

from .model import (E1, E2, E3, EULER, FRACTIONAL, MICKENS, REFERENCE, SCHEMES,
                    ModelParams, State, Trajectory, equilibria, rates)
from .special import beta, gamma, mittag_leffler
from .schemes import (DivergenceError, SchemeConfig, StepSizeWarning, iterate,
                      mickens_phi)
from .fractional import (FractionalConfig, caputo_solve, caputo_solve_batch,
                         scalar_caputo_solve)
from .stability import (NON_HYPERBOLIC, OUT_OF_CRITERION, SADDLE, SINK, SOURCE,
                        Quadratic, characteristic_quadratic, classify,
                        euler_step_bound, jacobian_continuous, jacobian_euler,
                        jacobian_mickens, routh_hurwitz_quadratic,
                        schur_cohn_quadratic)
from .regions import (RegionSpec, check_trajectory, continuous_region,
                      euler_region, fractional_conservation_bound,
                      fractional_region, mickens_region)
from .runner import (CSV_HEADER, DEFAULT_INITIAL, DEFAULT_PARAMS, PRESETS,
                     CompareResult, ConfigError, Scenario, compare,
                     load_scenarios, parse_config, preset_scenarios,
                     run_batch, run_scenario, run_scenarios, scheme_region,
                     solve_scenario, trajectory_from_csv, trajectory_to_csv,
                     write_gnuplot_script)

__version__ = "0.1.0"

__all__ = [
    "E1", "E2", "E3", "EULER", "FRACTIONAL", "MICKENS", "REFERENCE", "SCHEMES",
    "ModelParams", "State", "Trajectory", "equilibria", "rates",
    "beta", "gamma", "mittag_leffler",
    "DivergenceError", "SchemeConfig", "StepSizeWarning", "iterate",
    "mickens_phi",
    "FractionalConfig", "caputo_solve", "caputo_solve_batch",
    "fractional_conservation_bound", "scalar_caputo_solve",
    "NON_HYPERBOLIC", "OUT_OF_CRITERION", "SADDLE", "SINK", "SOURCE",
    "Quadratic", "characteristic_quadratic", "classify",
    "euler_step_bound", "jacobian_continuous", "jacobian_euler",
    "jacobian_mickens", "routh_hurwitz_quadratic", "schur_cohn_quadratic",
    "RegionSpec", "check_trajectory", "continuous_region", "euler_region",
    "fractional_region", "mickens_region",
    "CSV_HEADER", "DEFAULT_INITIAL", "DEFAULT_PARAMS", "PRESETS",
    "CompareResult", "ConfigError", "Scenario", "compare", "load_scenarios",
    "parse_config", "preset_scenarios", "run_batch", "run_scenario",
    "run_scenarios", "scheme_region", "solve_scenario", "trajectory_from_csv",
    "trajectory_to_csv", "write_gnuplot_script",
]
