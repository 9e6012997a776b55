"""Small shared helpers: ASCII figure rendering, and
:mod:`repro.utils.jsonl`, the one JSON-lines reader."""

from . import ascii_plot

__all__ = ["ascii_plot"]
