"""Analysis and reporting: paper-style time formatting, speedups, table
rendering and the communication-pattern queries behind Figures 2–5."""

from repro.analysis.timefmt import format_hms, parse_hms
from repro.analysis.speedup import speedup, speedup_table
from repro.analysis.tables import Table, render_table
from repro.analysis.commpattern import CommunicationSummary, analyze_communications

__all__ = [
    "format_hms",
    "parse_hms",
    "speedup",
    "speedup_table",
    "Table",
    "render_table",
    "CommunicationSummary",
    "analyze_communications",
]
