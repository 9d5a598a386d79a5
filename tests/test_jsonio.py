import json
import random

import numpy as np
import pytest

from gfharmonic.cyclo import get_ring
from gfharmonic.errors import BackendMismatch
from gfharmonic.fourier import fourier_matrix
from gfharmonic.gf import make_field
from gfharmonic.hilbert import ring_for
from gfharmonic.jsonio import matrix_from_json, matrix_to_json, scalar_to_json
from gfharmonic.linalg import EXACT, OperatorMatrix
from gfharmonic.symplectic import element_row, synthesize


def scalar_from_json(data, ring):
    """One scalar payload, decoded as the one entry of a 1 x 1 matrix."""
    (x,), = matrix_from_json({"dim": 1, "backend": "exact", "entries": [data]}, ring).rows
    return x


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


def rows_path(data, ring):
    """The decoder the triple path replaced: one canonical scalar per
    entry (``CycloRing.scalar``), packed by the rows constructor."""
    dim, entries = data["dim"], data["entries"]

    def scalar(x):
        return ring.scalar(x["coeffs"], x["scale_exp"], x["denom"])
    return OperatorMatrix(dim, EXACT, ring, [[scalar(entries[n * dim + m]) for m in range(dim)]
                                             for n in range(dim)])


def non_canonical(data, p):
    """The payload with entries rewritten to the same values in forms that
    are not canonical: a negative denominator, a denominator divisible by
    p, a common factor of coefficients and denominator, a scale exponent
    two above canonical, and a zero with a scale and a negative denominator."""
    g = 7 if p != 7 else 5
    out = json.loads(json.dumps(data))
    entries = out["entries"]
    nonzero = [k for k, x in enumerate(entries) if any(x["coeffs"])]
    rewrites = [lambda c, e, d: ([-x for x in c], e, -d),
                lambda c, e, d: ([p * x for x in c], e, p * d),
                lambda c, e, d: ([g * x for x in c], e, g * d),
                lambda c, e, d: ([p * x for x in c], e + 2, d)]
    for k, rewrite in zip(nonzero[1::3], rewrites * len(entries)):
        x = entries[k]
        x["coeffs"], x["scale_exp"], x["denom"] = rewrite(x["coeffs"], x["scale_exp"], x["denom"])
    zero = next((x for x in entries if not any(x["coeffs"])), None)
    if zero is not None:
        zero["scale_exp"], zero["denom"] = 5, -g
    return out


@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (3, 3), (7, 2)], ids=str)
def test_matrix_decodes_straight_to_the_rows_path_triple(pe):
    field = make_field(*pe)
    ring = ring_for(field)
    row = element_row(field, 1, 2, 3 % field.order)
    for mat in (synthesize(field, row), fourier_matrix(field)):
        plain = json.loads(json.dumps(matrix_to_json(mat)))
        for data in (plain, non_canonical(plain, field.p)):
            got, want = matrix_from_json(data, ring), rows_path(data, ring)
            (gd, ge, gq), (wd, we, wq) = got.packed, want.packed
            assert (ge, gq, gd.dtype, gd.shape) == (we, wq, wd.dtype, wd.shape)
            assert np.array_equal(gd, wd) and got.equals(mat)
    assert non_canonical(plain, field.p) != plain


def test_matrix_decodes_coefficients_past_int64():
    ring = ring_for(make_field(3, 1))
    big, pad = 2 ** 70, [0] * (ring.degree - 2)
    entries = [{"coeffs": [big, 0] + pad, "scale_exp": 0, "denom": 3 * big, "N": ring.order},
               {"coeffs": [-2 ** 63, 1] + pad, "scale_exp": 1, "denom": -1, "N": ring.order},
               {"coeffs": [0, 0] + pad, "scale_exp": 0, "denom": 1, "N": ring.order},
               {"coeffs": [1, 2] + pad, "scale_exp": 3, "denom": 2 ** 64, "N": ring.order}]
    data = {"dim": 2, "backend": "exact", "entries": entries}
    got, want = matrix_from_json(data, ring), rows_path(data, ring)
    assert got.packed[1:] == want.packed[1:] and np.array_equal(got.packed[0], want.packed[0])
    assert got.equals(want)
