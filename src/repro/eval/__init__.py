"""``repro.eval`` — table formatting, congestion-map visualisation and
per-design reporting."""

from .tables import format_table, format_table2, format_table3
from .visualize import ascii_heatmap, write_pgm, comparison_panel
from .reporting import per_design_report, rate_tracking_error

__all__ = ["format_table", "format_table2", "format_table3",
           "ascii_heatmap", "write_pgm", "comparison_panel",
           "per_design_report", "rate_tracking_error"]
