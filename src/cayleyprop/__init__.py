"""Cayley graph computational templates and bottleneck diagnostics."""

__version__ = "0.1.0"
