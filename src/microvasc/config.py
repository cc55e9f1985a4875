"""Run configuration: all model parameters with their literature defaults,
loadable from a flat JSON key-value file."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .flow import FlowParameters
from .grid import TissueGrid
from .growth import GrowthParameters
from .network import DomainBox, enlarge_domain
from .oxygen import OxygenParameters
from .rheology import RheologyParameters

# Region-of-interest bounds of the reference data set, meters
DEFAULT_ROI_LOWER = (0.038e-3, 8.8e-7, 8.8e-7)
DEFAULT_ROI_UPPER = (1.13e-3, 1.05e-3, 1.50e-3)


@dataclass
class RunConfig:
    input_dgf: str | None = None
    output_dir: str = "out"
    grid_cells: tuple[int, int, int] = (20, 20, 20)
    roi_lower: tuple[float, float, float] = DEFAULT_ROI_LOWER
    roi_upper: tuple[float, float, float] = DEFAULT_ROI_UPPER
    domain_enlargement: float = 0.10
    master_seed: int = 0
    repetitions: int = 1
    phases: tuple[int, ...] = (1, 2, 3)
    export_vtk: bool = True
    export_csv: bool = True
    rheology: RheologyParameters = field(default_factory=RheologyParameters)
    flow: FlowParameters = field(default_factory=FlowParameters)
    oxygen: OxygenParameters = field(default_factory=OxygenParameters)
    growth: GrowthParameters = field(default_factory=GrowthParameters)

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValidationError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.repetitions < 1:
            raise ValidationError(f"repetitions must be at least 1, got {self.repetitions}")
        if not set(self.phases) <= {1, 2, 3}:
            raise ValidationError(f"phases must be drawn from 1, 2, 3, got {list(self.phases)}")
        # the roi, domain and grid are built when a command runs; a value
        # they reject is reported now, by the fields that hold it
        with _reported_as("roi_lower, roi_upper"):
            roi = self.roi_box()
        with _reported_as("domain_enlargement"):
            domain = enlarge_domain(roi, self.domain_enlargement)
        with _reported_as("grid_cells"):
            TissueGrid(domain, self.grid_cells)

    def roi_box(self) -> DomainBox:
        return DomainBox(np.array(self.roi_lower), np.array(self.roi_upper))

    def digest(self) -> str:
        """Hash of the scientific parameters; artifact location is excluded
        so identical runs into different directories share a digest."""
        payload = dataclasses.asdict(self)
        payload.pop("output_dir", None)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]

    def provenance(self, version: str) -> list[str]:
        return [
            f"microvasc {version}",
            f"config {self.digest()}",
            f"seed {self.master_seed}",
        ]

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        data = json.loads(Path(path).read_text())
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        _check_keys(cls, data, "config")
        kwargs = dict(data)
        for name, typ in (
            ("rheology", RheologyParameters),
            ("flow", FlowParameters),
            ("oxygen", OxygenParameters),
            ("growth", GrowthParameters),
        ):
            if name in kwargs:
                where = f"config section {name!r}"
                _check_keys(typ, kwargs[name], where)
                with _reported_as(where):
                    kwargs[name] = typ(**kwargs[name])
        for key in ("grid_cells", "roi_lower", "roi_upper", "phases"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def _check_keys(typ, data, where: str):
    """Reject a section that is not a JSON object or names unknown fields."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in dataclasses.fields(typ)}
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


@contextmanager
def _reported_as(where: str):
    """Prefix a validation error raised inside with where it comes from."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
