"""Experiment harness: the trial result row and table rendering."""

from .runner import TrialResult
from .tables import format_csv, format_markdown_table, format_table, save_csv

__all__ = [
    "TrialResult",
    "format_csv",
    "format_markdown_table",
    "format_table",
    "save_csv",
]
