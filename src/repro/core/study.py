"""Whole-study orchestration and persistence.

A :class:`Study` is the paper's complete evaluation as one object: every
model's fleet under both workloads, with the derived artifacts (Table II
rows, efficiency points) and a directory layout for saving and reloading:

    study_dir/
      manifest.json                     # models, workloads, summary rows
      <model-slug>/unconstrained.json   # ExperimentResult documents
      <model-slug>/fixed-frequency.json

Reloading a saved study restores every number without re-simulating —
campaigns are deterministic, but a full-length five-model study is minutes
of compute worth caching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.core.efficiency import EfficiencyPoint, efficiency_point
from repro.core.results import ExperimentResult
from repro.core.serialize import experiment_from_dict, experiment_to_dict
from repro.device.catalog import device_spec
from repro.errors import AnalysisError
from repro.soc.catalog import soc_by_name

#: Manifest schema marker.
MANIFEST_FORMAT = "repro-study-v1"


def _slug(model: str) -> str:
    return model.lower().replace(" ", "-")


@dataclass(frozen=True)
class Study:
    """Results of the full paper evaluation.

    Attributes
    ----------
    results:
        ``{model: (unconstrained, fixed_frequency)}`` experiment results.
    """

    results: Dict[str, Tuple[ExperimentResult, ExperimentResult]]

    def __post_init__(self) -> None:
        if not self.results:
            raise AnalysisError("a study needs at least one model")

    @property
    def models(self) -> Tuple[str, ...]:
        """Models covered, insertion order."""
        return tuple(self.results)

    def performance(self, model: str) -> ExperimentResult:
        """One model's UNCONSTRAINED result."""
        return self._pair(model)[0]

    def energy(self, model: str) -> ExperimentResult:
        """One model's FIXED-FREQUENCY result."""
        return self._pair(model)[1]

    def _pair(self, model: str) -> Tuple[ExperimentResult, ExperimentResult]:
        try:
            return self.results[model]
        except KeyError:
            known = ", ".join(self.results)
            raise AnalysisError(f"no model {model!r} in study; have: {known}") from None

    # -- derived artifacts ------------------------------------------------

    def table2_rows(self) -> Dict[str, Tuple[str, int, float, float]]:
        """Table II: {model: (soc, n_devices, perf_var, energy_var)}."""
        rows = {}
        for model, (performance, energy) in self.results.items():
            rows[model] = (
                device_spec(model).soc_name,
                len(performance.devices),
                performance.performance_variation,
                energy.energy_variation,
            )
        return rows

    def efficiency_points(self) -> List[EfficiencyPoint]:
        """Figure 13 inputs, generation-ordered."""
        points = []
        for model, (performance, _) in self.results.items():
            soc = soc_by_name(device_spec(model).soc_name)
            points.append(efficiency_point(performance, soc.name, soc.year))
        return sorted(points, key=lambda p: (p.year, p.soc))

    # -- persistence ------------------------------------------------------

    def save(self, directory: Union[str, Path]) -> Path:
        """Write the study to a directory; returns the manifest path."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": MANIFEST_FORMAT,
            "models": list(self.results),
            "table2": {
                model: {
                    "soc": soc, "devices": count,
                    "performance_variation": perf, "energy_variation": energy,
                }
                for model, (soc, count, perf, energy) in self.table2_rows().items()
            },
        }
        for model, (performance, energy) in self.results.items():
            model_dir = root / _slug(model)
            model_dir.mkdir(exist_ok=True)
            (model_dir / "unconstrained.json").write_text(
                json.dumps(experiment_to_dict(performance), indent=2)
            )
            (model_dir / "fixed-frequency.json").write_text(
                json.dumps(experiment_to_dict(energy), indent=2)
            )
        manifest_path = root / "manifest.json"
        manifest_path.write_text(json.dumps(manifest, indent=2))
        return manifest_path

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "Study":
        """Reload a saved study."""
        root = Path(directory)
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise AnalysisError(f"no study manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != MANIFEST_FORMAT:
            raise AnalysisError(
                f"unsupported study format {manifest.get('format')!r}"
            )
        results = {}
        for model in manifest["models"]:
            model_dir = root / _slug(model)
            performance = experiment_from_dict(
                json.loads((model_dir / "unconstrained.json").read_text())
            )
            energy = experiment_from_dict(
                json.loads((model_dir / "fixed-frequency.json").read_text())
            )
            results[model] = (performance, energy)
        return cls(results=results)

