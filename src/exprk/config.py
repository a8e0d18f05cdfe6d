"""Flat key=value run configuration, merged with command-line flags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .convergence import NORMS, ExperimentSpec
from .errors import ParameterError

KNOWN_KEYS = ("scheme", "c", "n", "nu", "T", "tau_list", "tau_ref",
              "out", "norms", "tableau")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{source}:{line_no}: expected 'key=value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ParameterError(f"{source}:{line_no}: unknown key {key!r}")
        values[key] = value
    return values


def parse_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _parse_floats(text: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


@dataclass
class RunConfig:
    """Convergence-run settings; the experiment defaults come from ExperimentSpec."""

    scheme: str = ExperimentSpec.scheme
    c: float = ExperimentSpec.c
    n: int = ExperimentSpec.n_inner
    nu: float = ExperimentSpec.nu
    T: float = ExperimentSpec.T
    tau_list: Tuple[float, ...] = ExperimentSpec.tau_list
    tau_ref: Optional[float] = ExperimentSpec.tau_ref
    out: str = "convergence.csv"
    norms: Tuple[str, ...] = NORMS
    tableau: Optional[str] = None  # path to a tableau file

    _CASTS = {
        "scheme": str, "c": float, "n": int, "nu": float, "T": float,
        "tau_list": _parse_floats, "tau_ref": float, "out": str,
        "norms": lambda s: tuple(str(s).split(",")), "tableau": str,
    }

    def apply(self, values: dict):
        """Overlay key/value pairs; later calls win (flags over file)."""
        for key, value in values.items():
            if value is None:
                continue
            if key not in KNOWN_KEYS:
                raise ParameterError(f"unknown configuration key {key!r}")
            try:
                setattr(self, key, self._CASTS[key](value))
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"bad value for {key!r}: {exc}") from exc
        return self
