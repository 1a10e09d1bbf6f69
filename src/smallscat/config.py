"""Experiment configuration: flat key = value text with dotted section keys.

Grammar (one assignment per line, '#' comments):

    shape.constant = 1.0
    shape.center = 0.0, 0.0, 0.0
    shape.coeffs = (2, 0, 0.1); (3, 2, 0.05)     # empty: a sphere
    pulse.r0 = 2.0
    pulse.R0 = 3.0
    pulse.kreg = 7
    pulse.center = 0.0, 0.0, 0.0
    epsilons = 0.02, 0.04, 0.08, 0.16
    shell.r_ff = 2.0
    shell.R_ff = 3.0
    freq.omega_max = 40.0
    freq.n_omega = 400
    time.t_max = 10.0
    time.n_t = 201
    time.t0 = 5.5
    bem.n_theta = 20
    bem.n_phi = 40
    output_dir = out
    workers = 1

The obstacle's radial function is shape.constant plus the real spherical
harmonics (l, m, c) of shape.coeffs; without coeffs it is a sphere of radius
shape.constant.  The pulse is normalized so that max psi = 1: every verdict
is invariant under its amplitude.

Unknown keys are rejected with the offending key named.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields

from .geometry import ShellRegion, StarShape
from .incident import ShellPulse


class ConfigError(ValueError):
    pass


# every accepted key, with its default
_DEFAULTS = {
    "shape.constant": "1.0",
    "shape.center": "0.0, 0.0, 0.0",
    "shape.coeffs": "",
    "pulse.r0": "2.0",
    "pulse.R0": "3.0",
    "pulse.kreg": "7",
    "pulse.center": "0.0, 0.0, 0.0",
    "epsilons": "0.02, 0.04, 0.08, 0.16",
    "shell.r_ff": "2.0",
    "shell.R_ff": "3.0",
    "freq.omega_max": "40.0",
    "freq.n_omega": "400",
    "time.t_max": "10.0",
    "time.n_t": "201",
    "time.t0": "5.5",
    "bem.n_theta": "20",
    "bem.n_phi": "40",
    "output_dir": "out",
    "workers": "1",
}


@dataclass(frozen=True)
class ExperimentConfig:
    shape: StarShape
    pulse: ShellPulse
    epsilons: tuple[float, ...]
    shell: ShellRegion
    omega_max: float
    n_omega: int
    t_max: float
    n_t: int
    t0: float
    n_theta: int
    n_phi: int
    # where the outputs go and how fast they are made: neither changes a
    # result (tables are bit-identical at any worker count), so neither
    # takes part in ==, hash() or config_hash()
    output_dir: str = field(compare=False)
    workers: int = field(compare=False)

    @property
    def t_star(self) -> float:
        """Arrival of the reflected wave at the outer observation radius."""
        return self.pulse.R0 + self.shell.outer

    def config_hash(self) -> str:
        """Key of the run's outputs: the exact repr of every field that takes
        part in ==."""
        desc = tuple(getattr(self, f.name) for f in fields(self) if f.compare)
        return hashlib.sha256(repr(desc).encode()).hexdigest()[:12]


def _parse_floats(text: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok]
    except ValueError as exc:
        raise ConfigError(f"invalid numeric list for key '{key}': {text!r}") from exc


def _parse_coeffs(text: str, key: str):
    """Coefficient list '(l, m, c); (l, m, c)' (parentheses optional)."""
    out = []
    for chunk in re.split(r";", text):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        parts = [tok for tok in re.split(r"[,\s]+", chunk) if tok]
        if len(parts) != 3:
            raise ConfigError(f"invalid (l, m, c) triple in key '{key}': {chunk!r}")
        try:
            out.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ConfigError(f"invalid (l, m, c) triple in key '{key}': {chunk!r}") from exc
    return tuple(out)


def parse_config_text(text: str) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, val = (part.strip() for part in stripped.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown configuration key '{key}'")
        values[key] = val

    def fnum(key):
        try:
            return float(values[key])
        except ValueError as exc:
            raise ConfigError(f"invalid number for key '{key}': {values[key]!r}") from exc

    def inum(key):
        try:
            return int(values[key])
        except ValueError as exc:
            raise ConfigError(f"invalid integer for key '{key}': {values[key]!r}") from exc

    center = _parse_floats(values["shape.center"], "shape.center")
    try:
        shape = StarShape(center=center, constant=fnum("shape.constant"),
                          harmonics=_parse_coeffs(values["shape.coeffs"], "shape.coeffs"))
    except ValueError as exc:
        raise ConfigError(f"invalid shape.center, shape.constant or shape.coeffs: {exc}") from exc

    pcenter = _parse_floats(values["pulse.center"], "pulse.center")
    try:
        pulse = ShellPulse(r0=fnum("pulse.r0"), R0=fnum("pulse.R0"),
                           k_reg=inum("pulse.kreg"), center=pcenter)
    except ValueError as exc:
        raise ConfigError(f"invalid pulse.r0, pulse.R0, pulse.kreg or pulse.center: {exc}") from exc

    epsilons = tuple(_parse_floats(values["epsilons"], "epsilons"))
    if not epsilons:
        raise ConfigError("key 'epsilons' must list at least one scale")
    if not all(0.0 < eps <= 1.0 for eps in epsilons):
        raise ConfigError(f"key 'epsilons': every scale must lie in (0, 1], got {epsilons}")
    if len(set(epsilons)) < len(epsilons):
        raise ConfigError(f"key 'epsilons': every scale must be listed once, got {epsilons}")
    try:
        shell = ShellRegion(fnum("shell.r_ff"), fnum("shell.R_ff"))
    except ValueError as exc:
        raise ConfigError(f"invalid shell.r_ff or shell.R_ff: {exc}") from exc
    if max(epsilons) >= min(pulse.r0, shell.inner) / 4.0:
        raise ConfigError(
            f"key 'epsilons': max eps {max(epsilons)} must be < min(r0, r_ff)/4 "
            f"= {min(pulse.r0, shell.inner) / 4.0}")
    # every StarShape lies in the unit ball, so the obstacle then sits in
    # the pulse's hole at every scale
    reach = pulse.origin_distance + max(epsilons)
    if reach >= pulse.r0:
        raise ConfigError(f"key 'pulse.center': |center| + max eps = {reach} "
                          f"must be < pulse.r0 = {pulse.r0}")
    for key, lo in (("freq.n_omega", 1), ("time.n_t", 2), ("bem.n_theta", 4),
                    ("bem.n_phi", 4), ("workers", 1)):
        if inum(key) < lo:
            raise ConfigError(f"key '{key}' must be >= {lo}")
    if fnum("freq.omega_max") <= 0 or fnum("time.t_max") <= 0:
        raise ConfigError("freq.omega_max and time.t_max must be positive")

    return ExperimentConfig(
        shape=shape, pulse=pulse, epsilons=epsilons, shell=shell,
        omega_max=fnum("freq.omega_max"), n_omega=inum("freq.n_omega"),
        t_max=fnum("time.t_max"), n_t=inum("time.n_t"), t0=fnum("time.t0"),
        n_theta=inum("bem.n_theta"), n_phi=inum("bem.n_phi"),
        output_dir=values["output_dir"], workers=inum("workers"),
    )


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc


def default_config() -> ExperimentConfig:
    return parse_config_text("")
