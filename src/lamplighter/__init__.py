"""Lamplighter group word metric, explicit quasi-line walks, and
ball-local coarse separation evidence."""

from .group import (
    EXCEEDS,
    IDENTITY,
    CodecError,
    Configuration,
    ProbeInsideObstacleError,
    ProbeOutsideBallError,
    ResourceLimitError,
    bfs_ball,
    compose,
    decode_config,
    dyadic_views,
    encode_config,
    invert,
    neighbors,
    word_distance,
)
from .walks import (
    ProbeSet,
    Walk,
    half_quasi_line,
    probes,
    quasi_circle,
    quasi_interval,
    quasi_line,
    stage_config,
    stage_cursors,
    stage_walk,
    trailing_ones,
)

__all__ = [
    "EXCEEDS",
    "IDENTITY",
    "CodecError",
    "Configuration",
    "bfs_ball",
    "compose",
    "decode_config",
    "dyadic_views",
    "encode_config",
    "invert",
    "neighbors",
    "word_distance",
    "ProbeSet",
    "Walk",
    "half_quasi_line",
    "probes",
    "quasi_circle",
    "quasi_interval",
    "quasi_line",
    "stage_config",
    "stage_cursors",
    "stage_walk",
    "trailing_ones",
    "Ball",
    "CircleFamilyDistortion",
    "Component",
    "DistortionProfile",
    "PathSpec",
    "ProbeInsideObstacleError",
    "ProbeOutsideBallError",
    "ProbePlacement",
    "ResourceLimitError",
    "SeparationReport",
    "ball",
    "circle_family_distortion",
    "components_after_removal",
    "distance_to_path",
    "distortion_profile",
    "path_in_ball",
    "separation_report",
]


def __getattr__(name: str):
    # The names of the ball-local layer load it, and numpy, on first
    # access (PEP 562), so that walks and the closed-form metric start
    # without numpy.
    if name in __all__:
        from . import coarse

        return getattr(coarse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
