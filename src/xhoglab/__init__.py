"""Desk-scale simulation and certification workbench for linear XEB heavy output generation."""

__version__ = "0.1.0"
SCHEMA_VERSION = 1  # of the JSON reports under schemas/
