"""Multimodal optimization via hill-valley clustering over restarting
populations, with a 20-problem niching benchmark and scoring harness."""

from .harness import ExperimentConfig, run_experiment
from .orchestrator import run
from .problems.suite import make_problem

__version__ = "0.1.0"

__all__ = ["ExperimentConfig", "make_problem", "run", "run_experiment",
           "__version__"]
