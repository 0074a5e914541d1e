"""Two-dimensional parameter sweeps (e.g. system size × OLR heatmaps).

The paper's figures are one-dimensional cuts through a larger response
surface; :func:`run_sweep2d` maps the whole surface for a single
metric/configuration — handy for locating the transition front the
individual figures slice through.

The same determinism contract as :mod:`repro.experiments.runner`
applies: outcomes depend only on ``(seed, x_index, y_index,
trial_index)``, and the per-point workload seeds are shared by any two
sweeps with the same seed, so sweeps of different metrics are paired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import ExperimentError, ReproError
from ..rng import derive_seed
from .runner import CellResult, check_run_options, run_cell, run_tasks
from .spec import TrialConfig

__all__ = ["Sweep2DResult", "run_sweep2d", "heatmap"]


@dataclass
class Sweep2DResult:
    """Grid of cell results over two swept parameters."""

    title: str
    x_label: str
    y_label: str
    x_values: list[Any]
    y_values: list[Any]
    cells: dict[tuple[int, int], CellResult] = field(default_factory=dict)
    trials_per_cell: int = 0
    seed: int = 0
    elapsed_seconds: float = 0.0

    def cell(self, x_index: int, y_index: int) -> CellResult:
        try:
            return self.cells[(x_index, y_index)]
        except KeyError:
            raise ExperimentError(
                f"no cell at x={x_index}, y={y_index}"
            ) from None

    def ratio_grid(self) -> list[list[float]]:
        """Rows indexed by y, columns by x (matrix convention)."""
        return [
            [self.cell(xi, yi).ratio for xi in range(len(self.x_values))]
            for yi in range(len(self.y_values))
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro.sweep2d/1",
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x_values": list(self.x_values),
            "y_values": list(self.y_values),
            "trials_per_cell": self.trials_per_cell,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "ratios": self.ratio_grid(),
        }


def run_sweep2d(
    config_for: Callable[[Any, Any], TrialConfig],
    x_values: Sequence[Any],
    y_values: Sequence[Any],
    *,
    title: str = "2D sweep",
    x_label: str = "x",
    y_label: str = "y",
    trials: int = 128,
    seed: int = 2026,
    jobs: int | None = None,
    chunk_size: int = 32,
) -> Sweep2DResult:
    """Evaluate ``config_for(x, y)`` over the full grid."""
    if not x_values or not y_values:
        raise ExperimentError("both sweep axes need at least one value")
    check_run_options(trials, jobs, chunk_size)
    start = time.perf_counter()

    units = []
    for xi, x in enumerate(x_values):
        for yi, y in enumerate(y_values):
            config = config_for(x, y)
            seeds = [
                derive_seed(seed, xi, yi, t) for t in range(trials)
            ]
            for lo in range(0, trials, chunk_size):
                chunk = seeds[lo : lo + chunk_size]
                units.append(((xi, yi), run_cell, (config, chunk)))

    result = Sweep2DResult(
        title=title,
        x_label=x_label,
        y_label=y_label,
        x_values=list(x_values),
        y_values=list(y_values),
        trials_per_cell=trials,
        seed=seed,
    )
    for key, cell in run_tasks(units, jobs, what="cell"):
        if isinstance(cell, ReproError):
            raise cell
        if key in result.cells:
            result.cells[key] = result.cells[key].merged(cell)
        else:
            result.cells[key] = cell
    result.elapsed_seconds = time.perf_counter() - start
    return result


_SHADES = " .:-=+*#%@"


def heatmap(result: Sweep2DResult) -> str:
    """ASCII heatmap of the success-ratio grid (darker = higher)."""
    col_w = max(4, max(len(f"{x:g}" if isinstance(x, float) else str(x))
                       for x in result.x_values) + 1)
    lines = [f"{result.title} (success ratio; ' '=0 .. '@'=1)"]
    header = " " * 8
    for x in result.x_values:
        header += (f"{x:g}" if isinstance(x, float) else str(x)).rjust(col_w)
    lines.append(header)
    for yi in reversed(range(len(result.y_values))):
        y = result.y_values[yi]
        label = (f"{y:g}" if isinstance(y, float) else str(y)).rjust(7)
        row = label + " "
        for xi in range(len(result.x_values)):
            r = result.cell(xi, yi).ratio
            shade = _SHADES[min(len(_SHADES) - 1, int(r * (len(_SHADES) - 1) + 0.5))]
            row += (shade * 2).rjust(col_w)
        lines.append(row)
    lines.append(f"        [{result.y_label} rising ↑, {result.x_label} →]")
    return "\n".join(lines)
