import json
import random

import numpy as np
import pytest

from gfharmonic.cyclo import get_ring
from gfharmonic.errors import BackendMismatch
from gfharmonic.fourier import fourier_matrix
from gfharmonic.gf import make_field
from gfharmonic.hilbert import ring_for
from gfharmonic.jsonio import (matrix_from_json, matrix_to_json,
                               scalar_from_json, scalar_to_json)


@pytest.fixture(scope="module")
def gf9():
    return make_field(3, 2, [2, 1, 1])


def test_scalar_round_trip(gf9):
    ring = ring_for(gf9)
    rng = random.Random(1)
    for _ in range(20):
        x = ring.scalar([rng.randint(-3, 3) for _ in range(4)],
                        rng.randint(0, 3), rng.randint(1, 5))
        data = json.loads(json.dumps(scalar_to_json(x)))
        assert scalar_from_json(data, ring) == x
        assert set(data) == {"coeffs", "scale_exp", "denom", "N"}


def test_scalar_ring_mismatch(gf9):
    ring = ring_for(gf9)
    data = scalar_to_json(ring.one)
    with pytest.raises(BackendMismatch):
        scalar_from_json(data, get_ring(20, 5))


def test_matrix_round_trip_exact(gf9):
    ring = ring_for(gf9)
    f = fourier_matrix(gf9)
    data = json.loads(json.dumps(matrix_to_json(f)))
    assert data["backend"] == "exact" and data["dim"] == 9
    back = matrix_from_json(data, ring)
    assert back.equals(f)


def test_matrix_round_trip_float(gf9):
    f = fourier_matrix(gf9).embed()
    data = json.loads(json.dumps(matrix_to_json(f)))
    assert data["backend"] == "float"
    back = matrix_from_json(data)
    assert np.linalg.norm(back - f) < 1e-15
