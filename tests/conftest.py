import sys
from pathlib import Path

import numpy as np
import pytest

import lassodist as ld

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def n1p2():
    """The running rank-one example, X = (1, 2)."""
    return ld.build_problem(np.array([[1.0, 2.0]]))


@pytest.fixture
def corr2():
    """Full-rank design with gram [[1, .5], [.5, 1]]."""
    return ld.design_from_gram(np.array([[1.0, 0.5], [0.5, 1.0]]))


@pytest.fixture
def x2x3():
    """Structural-set example: all three coordinates reachable."""
    return ld.build_problem(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))


@pytest.fixture
def x2x4():
    """Unique for every uniform tuning although not in general position."""
    return ld.build_problem(np.array([[1.0, 1.0, 2.0, 0.0], [0.0, 0.0, 1.0, 3.0]]))
