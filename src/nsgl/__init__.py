"""Pseudo-spectral solver for a penalized liquid-crystal flow on the 2D torus.

A velocity field u and a director field n evolve under Stokes dissipation,
transport, elastic (Ericksen) stress, a Ginzburg-Landau penalty that relaxes
|n| toward 1 at scale epsilon, additive solenoidal noise on u, and a
geometric rotation noise on n about a fixed axis field h.  The package
exposes the composite splitting stepper, per-step energy diagnostics, the
epsilon-family convergence experiments, and a config-driven CLI.
"""

from .checks import run_identity_checks
from .diagnostics import (
    CoveringSet,
    EnergyReport,
    RunTrace,
    energy_report,
)
from .experiments import (
    ConvergenceReport,
    EnsembleReport,
    NumericsError,
    fit_rate,
    run_coupled_family,
    run_ensemble,
    run_path,
)
from .grid import DirectorField, SpectralGrid, VelocityField, random_band_limited
from .io_cli import (
    ConfigError,
    build_components,
    dump_config,
    format_report,
    load_checkpoint,
    load_config,
    main,
    save_checkpoint,
)
from .noise import NoiseModel
from .operators import GLParams
from .stepper import CflError, SimState, StepperConfig, step

__version__ = "0.1.0"

__all__ = [
    "CflError",
    "ConfigError",
    "ConvergenceReport",
    "CoveringSet",
    "DirectorField",
    "EnergyReport",
    "EnsembleReport",
    "GLParams",
    "NoiseModel",
    "NumericsError",
    "RunTrace",
    "SimState",
    "SpectralGrid",
    "StepperConfig",
    "VelocityField",
    "build_components",
    "dump_config",
    "energy_report",
    "fit_rate",
    "format_report",
    "load_checkpoint",
    "load_config",
    "main",
    "random_band_limited",
    "run_coupled_family",
    "run_ensemble",
    "run_identity_checks",
    "run_path",
    "save_checkpoint",
    "step",
    "__version__",
]
