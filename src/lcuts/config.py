"""Flat key=value configuration files for the CLI.

One ``key = value`` pair per line; blank lines and ``#`` comments are
ignored. Unknown keys are rejected so typos fail loudly. Every knob of the
voting, graph, stopping, and pipeline parameter sets is exposed, plus the
evaluation overlap fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .direction import VotingParams
from .engine import StoppingLimits
from .errors import InputError, LcutsError
from .graph import GraphParams
from .metrics import check_overlap_frac
from .pipeline import PipelineParams
from .synth import SynthSpec

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise InputError(f"expected a boolean, got {raw!r}") from None


def parse_kv(path: str | Path) -> dict[str, str]:
    """Read a flat key=value file into a string dict (last duplicate wins)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _read_values(path: str | Path, keys: dict[str, tuple], kind: str) -> dict[str, object]:
    """The values of a key=value file, by key, each converted by the last
    item of its entry in ``keys``; an unknown key or a value its converter
    refuses raises InputError."""
    out: dict[str, object] = {}
    for key, value in parse_kv(path).items():
        if key not in keys:
            raise InputError(f"{path}: unknown {kind} key {key!r}")
        try:
            out[key] = keys[key][-1](value)
        except (ValueError, InputError) as exc:
            raise InputError(f"{path}: bad value for {key}: {exc}") from exc
    return out


# key -> (target section, attribute, converter)
_CONFIG_KEYS: dict[str, tuple[str, str, object]] = {
    "hops": ("voting", "hops", int),
    "hopRadius": ("voting", "hop_radius", float),
    "nRelBins": ("voting", "n_rel_bins", int),
    "r": ("graph", "r", float),
    "sigmaD": ("graph", "sigma_d", float),
    "sigmaT": ("graph", "sigma_t", float),
    "intensitySamplingStep": ("graph", "intensity_sampling_step", float),
    "sizeLimit": ("limits", "size_limit", float),
    "eccLimit": ("limits", "ecc_limit", float),
    "stdLimit": ("limits", "std_limit", float),
    "minGroupSize": ("limits", "min_group_size", int),
    "checkIntensity": ("limits", "check_intensity", _parse_bool),
    "checkEccentricity": ("limits", "check_eccentricity", _parse_bool),
    "gaussianSigma": ("pipeline", "gaussian_sigma", float),
    "backgroundRadius": ("pipeline", "background_radius", float),
    "maximaWindow": ("pipeline", "maxima_window", int),
    "minSeparation": ("pipeline", "min_separation", float),
    "minNeighborDist": ("pipeline", "min_neighbor_dist", float),
    "detectionFloor": ("pipeline", "detection_floor", float),
    "overlapFrac": ("eval", "overlap_frac", float),
}


@dataclass(frozen=True)
class Config:
    voting: VotingParams
    graph: GraphParams
    limits: StoppingLimits
    pipeline: PipelineParams
    overlap_frac: float = 0.5

    def __post_init__(self) -> None:
        check_overlap_frac(self.overlap_frac)

    @classmethod
    def default(cls) -> "Config":
        return cls(VotingParams(), GraphParams(), StoppingLimits(), PipelineParams())

    @classmethod
    def from_file(cls, path: str | Path) -> "Config":
        sections: dict[str, dict[str, object]] = {
            "voting": {}, "graph": {}, "limits": {}, "pipeline": {}, "eval": {}}
        for key, value in _read_values(path, _CONFIG_KEYS, "config").items():
            section, attr, _ = _CONFIG_KEYS[key]
            sections[section][attr] = value
        try:
            return cls(
                voting=VotingParams(**sections["voting"]),
                graph=GraphParams(**sections["graph"]),
                limits=StoppingLimits(**sections["limits"]),
                pipeline=PipelineParams(**sections["pipeline"]),
                overlap_frac=float(sections["eval"].get("overlap_frac", 0.5)),
            )
        except LcutsError as exc:
            raise InputError(f"{path}: {exc}") from exc

    def echo(self) -> dict:
        """Fully resolved parameter set for embedding in output artifacts,
        in the order of ``_CONFIG_KEYS``; ``nRelBins`` is the resolved bin count."""
        sections = {"voting": self.voting, "graph": self.graph, "limits": self.limits,
                    "pipeline": self.pipeline, "eval": self}
        return {key: getattr(sections[section], "rel_bins" if key == "nRelBins" else attr)
                for key, (section, attr, _) in _CONFIG_KEYS.items()}


_SYNTH_KEYS: dict[str, tuple[str, object]] = {
    "dim": ("dim", int),
    "nRods": ("n_rods", int),
    "lengthMin": ("length_min", float),
    "lengthMax": ("length_max", float),
    "spacingAlongRod": ("spacing_along_rod", float),
    "orthoNoiseStd": ("ortho_noise_std", float),
    "minRodGap": ("min_rod_gap", float),
    "crossings": ("crossings", int),
    "intensityValley": ("intensity_valley", float),
    "seed": ("seed", int),
}


def read_synth_spec(path: str | Path) -> SynthSpec:
    """Parse a generator spec file (same flat format; lengthRange is split
    into lengthMin / lengthMax keys)."""
    fields = {_SYNTH_KEYS[key][0]: value for key, value in _read_values(path, _SYNTH_KEYS, "synth").items()}
    defaults = SynthSpec()
    length_range = (
        float(fields.pop("length_min", defaults.length_range[0])),
        float(fields.pop("length_max", defaults.length_range[1])),
    )
    try:
        return SynthSpec(length_range=length_range, **fields)
    except LcutsError as exc:
        raise InputError(f"{path}: {exc}") from exc
