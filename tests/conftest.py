import hashlib
import os

import numpy as np
import pytest

from smallscat import synthesis
from smallscat.geometry import StarShape
from smallscat.incident import ShellPulse, incident_time


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
