"""Distributed bandit online primal-dual optimization under time-varying
constraints: simulation engine, metrics, and experiment CLI."""

__version__ = "0.1.0"
