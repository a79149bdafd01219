"""Diagnostics: residual monitors, streamlines, VTK output."""

from .monitors import FieldSplitMonitor
from .streamlines import trace_streamlines
from .vtk import write_vts
from .ascii_plot import semilogy_ascii, bars_ascii

__all__ = [
    "FieldSplitMonitor",
    "trace_streamlines",
    "write_vts",
    "semilogy_ascii",
    "bars_ascii",
]
