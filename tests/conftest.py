import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fhn_tis as ft


@pytest.fixture
def std_params():
    return ft.Params(A=0.3, B=0.3, beta=0.8, gamma=0.5, epsilon=0.1)


@pytest.fixture
def quiet_params():
    return ft.Params(A=0.15, B=0.15, beta=0.8, gamma=0.5, epsilon=0.1)
