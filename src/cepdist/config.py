"""Run configuration shared by the library front ends and the CLI.

Values are resolved in fixed precedence order: built-in defaults, then a
config file, then ``CEPDIST_*`` environment variables, then explicit
overrides (CLI flags). The file format is one ``key = value`` pair per
line, with ``#`` starting a comment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Mapping, get_args, get_type_hints

from .errors import ConfigError

ENV_PREFIX = "CEPDIST_"
SPECTRUM_METHODS = ("welch", "periodogram")
OUTPUT_FORMATS = ("json", "csv")
LINKAGES = ("average", "single", "complete")


@dataclass(frozen=True)
class RunConfig:
    """Knobs for estimation, truncation, classification, and reporting.

    ``window_len`` and ``fft_length`` may be None, meaning: derive them
    from the signal length. The window is the largest power of two at
    most an eighth of the signal, clamped to [16, 1024], so 1024 from
    8192 samples on; the FFT length is the next power of two covering
    both the window and twice the cepstrum order. A Welch record under
    128 samples falls back to a periodogram, with a warning.
    """

    method: str = "welch"
    window_len: int | None = None
    overlap: float = 0.5
    fft_length: int | None = None
    K: int = 256
    K_test: int = 20
    tol_model: float = 1e-3
    tol_estimated: float = 5e-2
    hankel_rows: int = 150
    seed: int = 44
    output_format: str = "json"

    def validate(self) -> "RunConfig":
        check_method(self.method)
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )
        if self.window_len is not None and self.window_len < 8:
            raise ConfigError(f"window_len must be at least 8, got {self.window_len}")
        if not (0.0 <= self.overlap < 1.0):
            raise ConfigError(f"overlap must lie in [0, 1), got {self.overlap}")
        if self.fft_length is not None and (
            self.fft_length < 2 or self.fft_length & (self.fft_length - 1)
        ):
            raise ConfigError(f"fft_length must be a power of two, got {self.fft_length}")
        for name in ("K", "K_test", "hankel_rows"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer, got {getattr(self, name)}")
        for name in ("tol_model", "tol_estimated"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        return self


def check_method(method: str) -> None:
    """Refuse a spectrum method outside SPECTRUM_METHODS."""
    if method not in SPECTRUM_METHODS:
        raise ConfigError(f"method must be one of {SPECTRUM_METHODS}, got {method!r}")


# Each key's kind, from its annotation: str, int, float, or "int | None".
_KINDS = get_type_hints(RunConfig)
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def parse_config_value(key: str, text: str):
    """Parse the string form of one configuration value to its typed form."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = text.strip()
    kind, *optional = get_args(_KINDS[key]) or (_KINDS[key],)
    if optional and raw.lower() in ("none", "auto", ""):
        return None
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"value {raw!r} for key {key!r} is not a valid {kind.__name__}") from exc


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ConfigError(f"{path}: not UTF-8 text (byte 0x{byte:02x})") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, text = stripped.partition("=")
        key = key.strip()
        try:
            values[key] = parse_config_value(key, text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def load_config(
    path: str | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> RunConfig:
    """Resolve a RunConfig from defaults, file, environment, and overrides."""
    values: dict = {}
    if path is not None:
        values.update(_parse_config_file(path))
    env = os.environ if env is None else env
    for key in CONFIG_KEYS:
        env_name = ENV_PREFIX + key.upper()
        if env_name in env:
            values[key] = parse_config_value(key, env[env_name])
    if overrides:
        for key, value in overrides.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
            values[key] = parse_config_value(key, value) if isinstance(value, str) else value
    return RunConfig(**values).validate()
