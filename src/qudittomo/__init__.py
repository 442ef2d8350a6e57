"""Simulation and maximum-likelihood reconstruction of noisy qudit tomography."""

__version__ = "0.1.0"
