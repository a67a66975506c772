import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import toolate
from toolate.protocol import Trine


@pytest.fixture
def trine() -> Trine:
    return Trine.default()


@pytest.fixture
def rand() -> np.random.Generator:
    return np.random.default_rng(20240811)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def child_env() -> dict:
    """The environment for a child Python that imports this checkout's
    package whatever its working directory."""
    src = str(Path(toolate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
