"""Run configuration: all model parameters with their literature defaults,
loadable from a flat JSON key-value file."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, require_finite
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
        require_finite(self)
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

    def digest(self, network: str | None = None) -> str:
        """Hash of the scientific parameters and of the input network's DGF
        text `network`, as the command read it. Paths are excluded, the
        input's and the artifacts', so identical runs on copies of one
        input into different directories share a digest, and an input
        edited in place gets a new one."""
        payload = dataclasses.asdict(self)
        del payload["output_dir"], payload["input_dgf"]
        if network is not None:
            payload["input_sha256"] = hashlib.sha256(network.encode()).hexdigest()
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]

    def provenance(self, version: str, network: str | None = None) -> list[str]:
        """Header lines of every artifact; `network` is the input's DGF text
        (see `digest`)."""
        return [
            f"microvasc {version}",
            f"config {self.digest(network)}",
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
    """Reject a section that is not a JSON object, names unknown fields or
    gives a field a value of another JSON type than its default's."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(typ)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")
    for name, value in data.items():
        f = fields[name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if not (dataclasses.is_dataclass(default) or _same_json_type(value, default)):
            raise ValidationError(
                f"{where}: {name} must be {_json_type_name(default)}, got {json.dumps(value)}"
            )


def _same_json_type(value, default) -> bool:
    """Whether a JSON value has the type of a field's default: true or
    false, an integer, a finite number (an integer or not; Python's json
    reads NaN, Infinity and 1e400, which is inf), a string or null, or an
    array of the type of the default's first entry."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(
            _same_json_type(v, default[0]) for v in value
        )
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        # false for NaN, +-inf and integers past the largest float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return value is None or isinstance(value, str)  # the paths


def _json_type_name(default) -> str:
    if isinstance(default, tuple):
        return "an array of " + ("integers" if isinstance(default[0], int) else "finite numbers")
    return {bool: "true or false", int: "an integer", float: "a finite number"}.get(
        type(default), "a string"
    )


@contextmanager
def _reported_as(where: str):
    """Prefix a validation error raised inside with where it comes from."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
