import math

import numpy as np
import pytest
from hypothesis import strategies as st

from gafzeros import presets
from gafzeros.periodic import PeriodicFunction
from gafzeros.spectral import SpectralMeasure


@pytest.fixture(autouse=True)
def _deterministic_numpy_errors():
    # fail loudly on unexpected float trouble inside tests
    with np.errstate(over="warn", invalid="warn"):
        yield


@st.composite
def step_trig_atom_measures(draw):
    """A step with 2-3 breakpoints and nonnegative levels, plus a random trig
    density and up to two atoms: every piece differs in a constant only."""
    nb = draw(st.integers(2, 3))
    breaks = draw(st.lists(st.floats(-math.pi, math.pi), min_size=nb, max_size=nb,
                           unique=True).filter(lambda b: min(np.diff(np.sort(b))) > 1e-3))
    levels = draw(st.lists(st.floats(0.0, 2.0), min_size=nb, max_size=nb).filter(
        lambda v: max(v) > 0.1))
    dens = PeriodicFunction.step(breaks, levels)
    dens = dens * (1.0 / dens.integrals([-math.pi, math.pi])[0].real)
    if draw(st.booleans()):
        trig = presets.random_trig_density(draw(st.integers(0, 10**6)), degree=3)
        dens = 0.5 * dens + 0.5 * trig.density
    n_atoms = draw(st.integers(0, 2))
    atoms = tuple((t, 0.2) for t in draw(st.lists(st.floats(-math.pi, math.pi),
                                                   min_size=n_atoms, max_size=n_atoms)))
    return SpectralMeasure(density=dens * (1.0 - 0.2 * n_atoms), atoms=atoms)
