"""Terminal visualization: ASCII bar charts, line plots, sparklines."""

from repro.viz.ascii_charts import bar_chart, sparkline

__all__ = ["bar_chart", "sparkline"]
