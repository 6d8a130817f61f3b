"""Figure data export."""

import pytest

from repro.core.figure_data import (
    Series,
    bar_series,
    export_bundle,
)
from repro.core.results import DeviceResult, ExperimentResult, IterationResult
from repro.errors import AnalysisError


def experiment():
    def device(serial, perf, energy):
        it = IterationResult(
            model="Nexus 5", serial=serial, workload="UNCONSTRAINED",
            iterations_completed=perf, energy_j=energy, mean_power_w=1.0,
            mean_freq_mhz=2000.0, max_cpu_temp_c=75.0, cooldown_s=0.0,
            time_throttled_s=0.0,
        )
        return DeviceResult(
            model="Nexus 5", serial=serial, workload="UNCONSTRAINED",
            iterations=(it,),
        )

    return ExperimentResult(
        model="Nexus 5", workload="UNCONSTRAINED",
        devices=(device("bin-0", 900.0, 460.0), device("bin-3", 750.0, 575.0)),
    )


class TestSeries:
    def test_column_lookup(self):
        series = Series(
            name="t", x_label="x", y_label="y",
            columns=(("x", (1.0, 2.0)), ("y", (3.0, 4.0))),
        )
        assert series.column("y") == (3.0, 4.0)
        assert series.row_count == 2

    def test_unknown_column_rejected(self):
        series = Series(
            name="t", x_label="x", y_label="y", columns=(("x", (1.0,)),)
        )
        with pytest.raises(AnalysisError):
            series.column("z")

    def test_ragged_columns_rejected(self):
        with pytest.raises(AnalysisError):
            Series(
                name="t", x_label="x", y_label="y",
                columns=(("x", (1.0, 2.0)), ("y", (3.0,))),
            )

    def test_csv_rendering(self):
        series = Series(
            name="t", x_label="x", y_label="y",
            columns=(("x", (1.0, 2.0)), ("y", (0.5, 0.25))),
        )
        lines = series.to_csv().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,0.5"


class TestBarSeries:
    def test_performance_bars(self):
        series = bar_series(experiment(), "performance")
        assert series.column("normalized")[0] == pytest.approx(1.0)
        assert series.column("raw") == (900.0, 750.0)

    def test_energy_bars_normalized_to_min(self):
        series = bar_series(experiment(), "energy")
        assert series.column("normalized")[0] == pytest.approx(1.0)
        assert series.column("normalized")[1] > 1.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(AnalysisError):
            bar_series(experiment(), "latency")


class TestExportBundle:
    def test_bundle(self):
        series = bar_series(experiment(), "performance", name="fig06a")
        bundle = export_bundle([series])
        assert set(bundle) == {"fig06a"}
        assert bundle["fig06a"].startswith("unit_index,")

    def test_duplicate_names_rejected(self):
        series = bar_series(experiment(), "performance", name="dup")
        with pytest.raises(AnalysisError):
            export_bundle([series, series])
