"""Sparsity-gap toolkit: dictionaries, rank bounds, thresholds, experiments."""

__version__ = "0.1.0"
