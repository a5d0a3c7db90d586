"""Flat ``key = value`` configuration files for the whole pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .floor import FloorConfig
from .loop_closure import LoopConfig
from .prefilter import PrefilterConfig
from .pretracker import PretrackerConfig
from .registration import RegistrationConfig
from .scan_context import ScanContextParams
from .tracker import KeyframeCriteria


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored.
    A key set on two lines raises ``ValueError`` naming both."""
    out: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"line {lineno}: key {key!r} already set on "
                             f"line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out


@dataclass
class PipelineConfig:
    prefilter: PrefilterConfig = field(default_factory=PrefilterConfig)
    registration: RegistrationConfig = field(default_factory=RegistrationConfig)
    pretracker: PretrackerConfig = field(default_factory=PretrackerConfig)
    pretracker_enabled: bool = True
    keyframes: KeyframeCriteria = field(default_factory=KeyframeCriteria)
    floor: FloorConfig = field(default_factory=FloorConfig)
    floor_enabled: bool = True
    loop: LoopConfig = field(default_factory=LoopConfig)
    scan_context: ScanContextParams = field(default_factory=ScanContextParams)
    optimize_every_n_keyframes: int = 3
    incline_threshold_deg: float = 5.0
    map_resolution: float = 0.25
    streaming_queue_capacity: int = 32

    def __post_init__(self):
        if self.map_resolution <= 0:
            raise ValueError("map_resolution must be positive")
        if self.optimize_every_n_keyframes < 1:
            raise ValueError("optimize_every_n_keyframes must be >= 1")
        if self.incline_threshold_deg < 0:
            raise ValueError("incline_threshold_deg must be >= 0")

    @staticmethod
    def from_file(path: str) -> "PipelineConfig":
        with open(path) as f:
            return PipelineConfig.from_dict(parse_config_text(f.read()))

    @staticmethod
    def from_dict(kv: Dict[str, str]) -> "PipelineConfig":
        """Build a config from file keys; every section is rebuilt through
        its constructor, so its checks apply to values from a file too."""
        unknown = set(kv) - set(_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        fields: Dict[Optional[str], Dict[str, object]] = {}
        for key, value in kv.items():
            section, name, convert = _KEYS[key]
            fields.setdefault(section, {})[name] = convert(value)
        default = PipelineConfig()
        sections = {section: replace(getattr(default, section), **values)
                    for section, values in fields.items() if section}
        return PipelineConfig(**fields.get(None, {}), **sections)


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _finite(value: str) -> float:
    """A file's number; nan and inf pass no range check, so none loads."""
    out = float(value)
    if not np.isfinite(out):
        raise ValueError(f"not a finite number: {value!r}")
    return out


def _degrees(value: str) -> float:
    return np.deg2rad(_finite(value))


# file key -> (PipelineConfig section, or None for a top-level field,
#              field name, converter from the file's string)
_KEYS: Dict[str, Tuple[Optional[str], str, Callable[[str], object]]] = {
    # pre-filterer
    "downsample_resolution": ("prefilter", "downsample_resolution", _finite),
    "outlier_removal_method": ("prefilter", "outlier_method", str),
    "radius": ("prefilter", "radius", _finite),
    "min_neighbors": ("prefilter", "min_neighbors", int),
    # scan matching
    "max_iterations": ("registration", "max_iterations", int),
    "transformation_epsilon": ("registration", "transformation_epsilon",
                               _finite),
    "max_correspondence_distance": ("registration",
                                    "max_correspondence_distance", _finite),
    # pre-tracker
    "pretracker_enabled": (None, "pretracker_enabled", _parse_bool),
    "phase1_keep_fraction": ("pretracker", "phase1_keep_fraction", _finite),
    "phase2_keep_fraction": ("pretracker", "phase2_keep_fraction", _finite),
    "large_cloud_threshold": ("pretracker", "large_cloud_threshold", int),
    # tracker
    "keyframe_delta_trans": ("keyframes", "delta_trans", _finite),
    "keyframe_delta_angle": ("keyframes", "delta_angle", _finite),
    "keyframe_delta_time": ("keyframes", "delta_time", _finite),
    # floor detector
    "floor_enabled": (None, "floor_enabled", _parse_bool),
    "floor_clip_min_z": ("floor", "clip_min_z", _finite),
    "floor_clip_max_z": ("floor", "clip_max_z", _finite),
    "floor_normal_max_angle": ("floor", "normal_vertical_max_angle", _degrees),
    "floor_ransac_threshold": ("floor", "ransac_inlier_threshold", _finite),
    "floor_min_inlier_fraction": ("floor", "min_inlier_fraction", _finite),
    # loop detector
    "loop_search_radius": ("loop", "search_radius", _finite),
    "loop_min_accum_distance": ("loop", "min_accumulated_distance", _finite),
    "loop_fitness_threshold": ("loop", "fitness_accept_threshold", _finite),
    "sc_rings": ("scan_context", "rings", int),
    "sc_sectors": ("scan_context", "sectors", int),
    "sc_max_range": ("scan_context", "max_range", _finite),
    # graph
    "optimize_every_n_keyframes": (None, "optimize_every_n_keyframes", int),
    "incline_threshold_deg": (None, "incline_threshold_deg", _finite),
    "map_resolution": (None, "map_resolution", _finite),
}
