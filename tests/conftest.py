import dataclasses
import hashlib
import os

import numpy as np
import pytest

from smallscat import synthesis
from smallscat.config import ExperimentConfig
from smallscat.geometry import ShellRegion, StarShape
from smallscat.incident import ShellPulse, incident_time
from smallscat.synthesis import ScatteringScenario


@pytest.fixture(scope="session")
def pulse():
    return ShellPulse()


@pytest.fixture(scope="session")
def sphere():
    return StarShape.sphere()


@pytest.fixture(scope="session")
def bumpy():
    return StarShape.bumpy_sphere()


@pytest.fixture(scope="session")
def package_digest():
    """digest(edit=None): the source digest of the smallscat package,
    computed here over its directory, independently of synthesis; edit =
    (file name, old bytes, new bytes) replaces old with new in that file
    first, as an edit of the source would."""
    directory = os.path.dirname(synthesis.__file__)

    def digest(edit=None):
        entries = []
        for name in sorted(n for n in os.listdir(directory) if n.endswith(".py")):
            with open(os.path.join(directory, name), "rb") as fh:
                data = fh.read()
            if edit is not None and edit[0] == name:
                assert edit[1] in data
                data = data.replace(edit[1], edit[2], 1)
            entries.append((name, hashlib.sha256(data).hexdigest()))
        return hashlib.sha256(repr(entries).encode()).hexdigest()

    return digest


# a valid changed value of each field of the inputs that key stored
# results; a field that holds one of these classes is changed field by field
FIELD_CHANGES = {
    StarShape: {"center": (0.01, 0.0, 0.0), "constant": 0.85, "harmonics": ((2, 0, 0.01),)},
    ShellPulse: {"r0": 2.1, "R0": 3.1, "k_reg": 6, "amplitude": 2.0, "center": (0.1, 0.0, 0.0)},
    ShellRegion: {"inner": 2.1, "outer": 3.1},
    ScatteringScenario: {"epsilon": 0.05, "n_theta": 10, "n_phi": 20},
    ExperimentConfig: {"epsilons": (0.02, 0.04), "omega_max": 20.0, "n_omega": 200,
                       "t_max": 8.0, "n_t": 101, "t0": 5.0, "n_theta": 10, "n_phi": 20},
}


def field_variants(value):
    """(dotted field path, value with that one field changed) for every field
    of the dataclass value that takes part in ==, and recursively for every
    field of the FIELD_CHANGES classes it holds.  A field with no listed change
    fails an assert, so a field added later must be listed here."""
    nested, flat = [], []
    for f in dataclasses.fields(value):
        if f.compare:
            (nested if type(getattr(value, f.name)) in FIELD_CHANGES else flat).append(f.name)
    changes = FIELD_CHANGES[type(value)]
    assert sorted(changes) == sorted(flat), f"list a change of each field of {type(value)}"
    for name in flat:
        yield name, dataclasses.replace(value, **{name: changes[name]})
    for name in nested:
        for path, changed in field_variants(getattr(value, name)):
            yield f"{name}.{path}", dataclasses.replace(value, **{name: changed})


def piecewise_laplace(time_fn, s, breakpoints, n_gl=30):
    """Numerical Laplace transform of a piecewise-smooth causal signal:
    composite Gauss-Legendre between the given breakpoints (independent
    oracle for every frequency-domain formula in the package)."""
    x, w = np.polynomial.legendre.leggauss(n_gl)
    bps = sorted(b for b in set(breakpoints) if b >= 0.0)
    total = 0.0 + 0.0j
    for a, b in zip(bps[:-1], bps[1:]):
        if b <= a:
            continue
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        total += 0.5 * (b - a) * np.sum(w * np.exp(-s * t) * time_fn(t))
    return total


def incident_breakpoints(p: ShellPulse, r: float):
    """Times where u_inc(., r) switches polynomial pieces."""
    cands = [0.0, p.r0 - r, p.R0 - r, r - p.r0, r - p.R0, r + p.r0, r + p.R0]
    return [c for c in cands if c >= 0.0] + [r + p.R0]


def numerical_incident_laplace(p: ShellPulse, s, r, n_gl=30):
    return piecewise_laplace(lambda t: incident_time(p, t, r), s,
                             incident_breakpoints(p, r), n_gl)
