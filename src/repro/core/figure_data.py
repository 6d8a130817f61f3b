"""Plot-ready data series for the paper's figures.

The library renders ASCII reports (:mod:`repro.core.reporting`), but users
with a plotting stack want raw series.  This module extracts each figure's
data as plain :class:`Series` objects and renders them to CSV — no
plotting dependencies, no image files, just the numbers a figure is made
of.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.analysis import normalize
from repro.core.results import ExperimentResult
from repro.errors import AnalysisError


@dataclass(frozen=True)
class Series:
    """One figure's data.

    Attributes
    ----------
    name:
        Figure identity, e.g. ``"fig06a-performance"``.
    x_label / y_label:
        Axis labels.
    columns:
        Ordered mapping of column label → values.  The first column is the
        x axis; all columns share a length.
    """

    name: str
    x_label: str
    y_label: str
    columns: Tuple[Tuple[str, Tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise AnalysisError("a series needs at least one column")
        lengths = {len(values) for _, values in self.columns}
        if len(lengths) != 1:
            raise AnalysisError("all columns must share a length")

    @property
    def row_count(self) -> int:
        """Number of rows."""
        return len(self.columns[0][1])

    def column(self, label: str) -> Tuple[float, ...]:
        """Fetch one column by label."""
        for name, values in self.columns:
            if name == label:
                return values
        known = ", ".join(name for name, _ in self.columns)
        raise AnalysisError(f"no column {label!r}; columns: {known}")

    def to_csv(self) -> str:
        """Render as CSV with a header row."""
        out = io.StringIO()
        out.write(",".join(name for name, _ in self.columns) + "\n")
        for row in range(self.row_count):
            out.write(
                ",".join(f"{values[row]:.6g}" for _, values in self.columns) + "\n"
            )
        return out.getvalue()


def bar_series(
    result: ExperimentResult, metric: str = "performance", name: str = ""
) -> Series:
    """A per-SoC figure (6a/6b style) as normalized bars.

    ``metric`` is ``"performance"`` (normalized to max) or ``"energy"``
    (normalized to min).  The x column is the unit index, with the serial
    carried in a parallel categorical encoding (index order = serials
    order).
    """
    if metric == "performance":
        raw = [result.by_serial(s).performance for s in result.serials]
        normalized = normalize(raw, reference="max")
    elif metric == "energy":
        raw = [result.by_serial(s).energy_j for s in result.serials]
        normalized = normalize(raw, reference="min")
    else:
        raise AnalysisError(f"unknown metric {metric!r}")
    return Series(
        name=name or f"{result.model}-{metric}",
        x_label="unit index (see serials)",
        y_label=f"normalized {metric}",
        columns=(
            ("unit_index", tuple(float(i) for i in range(len(raw)))),
            ("raw", tuple(raw)),
            ("normalized", tuple(normalized)),
        ),
    )


def export_bundle(series: Sequence[Series]) -> Dict[str, str]:
    """Render many series to ``{name: csv_text}`` (the CLI's export set)."""
    bundle = {}
    for item in series:
        if item.name in bundle:
            raise AnalysisError(f"duplicate series name {item.name!r}")
        bundle[item.name] = item.to_csv()
    return bundle
