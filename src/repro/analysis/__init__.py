"""Measurement analysis: scheme comparisons and table rendering."""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "count_wins": "metrics",
    "reduction_factor": "metrics",
    "SchemeComparison": "metrics",
    "render_table": "tables",
    "fmt_seconds": "tables",
    "fmt_percent": "tables",
    "render_timeline": "timeline",
    "TableResult": "result",
    "TableView": "result",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
