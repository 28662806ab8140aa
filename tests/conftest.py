import pathlib

import pytest

from minorbit import liealg
from minorbit.catalog import Family

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"


@pytest.fixture(scope="session")
def o2():
    return liealg.build_model(Family.O2N2N, 2)


@pytest.fixture(scope="session")
def o3():
    return liealg.build_model(Family.O2N2N, 3)


@pytest.fixture(scope="session")
def gl2():
    return liealg.build_model(Family.GL2N_R, 2)


@pytest.fixture(scope="session")
def gl3():
    return liealg.build_model(Family.GL2N_R, 3)


@pytest.fixture(scope="session")
def all_models(o2, o3, gl2, gl3):
    """Every family of liealg.SPECS at n = 2 and 3."""
    built = {(m.family, m.n): m for m in (o2, o3, gl2, gl3)}
    return tuple(built.get((f, n)) or liealg.build_model(f, n)
                 for f in liealg.SPECS for n in (2, 3))
