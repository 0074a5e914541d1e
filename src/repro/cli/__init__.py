"""Command-line interfaces (``repro-figures``, ``repro-workload``,
``repro serve``, ``repro sweep``, ``repro store``)."""

from .main import build_parser, build_serve_parser, figures_main, main, serve_main
from .store_tool import build_store_parser, store_main
from .sweep_tool import build_sweep_parser, sweep_main

__all__ = [
    "main",
    "build_parser",
    "build_serve_parser",
    "build_store_parser",
    "build_sweep_parser",
    "figures_main",
    "serve_main",
    "store_main",
    "sweep_main",
    "workload_main",
    "build_workload_parser",
]

#: Names loaded on first use, because the workload tool imports NumPy.
_WORKLOAD_TOOL = {"workload_main": "main", "build_workload_parser": "build_parser"}


def __getattr__(name: str):
    if name not in _WORKLOAD_TOOL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import workload_tool

    return getattr(workload_tool, _WORKLOAD_TOOL[name])
