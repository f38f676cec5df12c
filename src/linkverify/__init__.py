"""Sample-based verification of control loops over packet-drop links.

Given only a finite record of packet successes and failures from an
unknown Bernoulli link, decide with a guaranteed error probability
whether a networked control loop is mean-square stable and whether its
average quadratic cost meets a target, and quantify how many samples
such decisions need.
"""

from .channel import ChannelTrace, draw_trace, load_trace, sample_mean, save_trace
from .complexity import (MarginSpec, bernstein_sample_size, correctness_bound,
                         hoeffding_sample_size)
from .harness import (ExperimentConfig, TrialLedger, load_experiment_config,
                      run_cost_experiment, run_stability_experiment,
                      sweep_sample_complexity, write_complexity_csv,
                      write_ledger_csvs)
from .intervals import (Method, RateInterval, bernstein_tail, build_interval,
                        hoeffding_tail)
from .sysmodel import (PlantModel, Trajectory, critical_rate,
                       kronecker_stable, load_plant, lyapunov_cost, save_plant,
                       simulate, spectral_radius, stability_threshold)
from .verify import Decision, Verdict, cost_test, general_test, stability_test

__version__ = "0.1.0"

__all__ = [
    "ChannelTrace", "draw_trace", "sample_mean", "save_trace", "load_trace",
    "Method", "RateInterval", "hoeffding_tail", "bernstein_tail",
    "build_interval",
    "PlantModel", "Trajectory", "spectral_radius",
    "stability_threshold", "kronecker_stable", "lyapunov_cost",
    "critical_rate", "simulate", "load_plant", "save_plant",
    "Decision", "Verdict", "stability_test", "cost_test", "general_test",
    "MarginSpec", "correctness_bound", "hoeffding_sample_size",
    "bernstein_sample_size",
    "ExperimentConfig", "TrialLedger", "run_stability_experiment",
    "run_cost_experiment",
    "sweep_sample_complexity", "write_ledger_csvs", "write_complexity_csv",
    "load_experiment_config",
    "__version__",
]
