"""Fourier transform on GF(p^ell) and on its subfields.

The Fourier matrix F(n, m) = p^(-ell/2) omega^(Tr(n m)) satisfies F^4 = 1
and F F^dagger = 1 exactly.  The subfield analogue uses the subfield trace
and is represented as a full-size matrix supported on subfield indices, so
the power relation between the two can be stated entrywise.  Spectral
projectors for the four eigenvalues 1, i, -1, -i are built from the first
three powers of F.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DimensionMismatch
from .gf import GFField
from .hilbert import ring_for
from .linalg import (OperatorMatrix, Spectrum, StateVector, blocks_equal, cyclic_spectrum,
                     root_matrix)


@cache
def fourier_matrix(field: GFField) -> OperatorMatrix:
    """The p^ell x p^ell Fourier matrix, cached per field."""
    ring, tb = ring_for(field), field.tables()
    # entry (n, m) is p^(-ell/2) zeta^e with e the root exponent of Tr(n m)
    return OperatorMatrix.from_packed(ring, root_matrix(
        ring, tb.trace[tb.mul] * (ring.order // field.p), field.ell))


def fourier_transform(field: GFField, chi: StateVector) -> StateVector:
    """The paper's Fourier transform chi -> F chi of a function on the field;
    the n-th output is the overlap of phi_n with chi.

    No suite calls it (they use F itself); it is kept as the library form
    of a paper object."""
    if chi.dim != field.order:
        raise DimensionMismatch(f"state dim {chi.dim} != field order {field.order}")
    return fourier_matrix(field).apply(chi)


def subfield_fourier(field: GFField, d: int) -> OperatorMatrix:
    """Subfield Fourier matrix, embedded with support on GF(p^d) indices.

    Entries p^(-d/2) omega^(subfield-trace of n m) for subfield n, m; zero
    elsewhere.
    """
    ring, q, tb = ring_for(field), field.order, field.tables()
    sub = np.asarray(field.subfield_indices(d))
    block, e, den = root_matrix(ring, field.subfield_traces(d)[tb.mul[np.ix_(sub, sub)]]
                                * (ring.order // field.p), d)
    data = np.zeros((q, q, ring.degree), dtype=block.dtype)
    data[np.ix_(sub, sub)] = block
    return OperatorMatrix.from_packed(ring, (data, e, den))


def component_factorization_check(field: GFField) -> dict:
    """Verify the component-space factorisation of the Fourier matrix.

    Checks that every entry of F factors as a product of p-dimensional
    transforms p^(-1/2) omega^(a b) under both pairings (dual components of
    one index against standard components of the other), and exhibits a
    witness entry where the naive standard/standard pairing differs.
    """
    p, tb = field.p, field.tables()
    basis = p ** np.arange(field.ell)
    std = np.arange(field.order)[:, None] // basis % p
    dual = tb.trace[tb.mul[:, basis]]
    tr, naive = tb.trace[tb.mul], std @ std.T % p
    witness = next((tuple(map(int, (n, m, tr[n, m], naive[n, m])))
                    for n, m in np.argwhere(naive != tr)[:1]), None)
    return {
        "factorization_dual_std": bool((dual @ std.T % p == tr).all()),
        "factorization_std_dual": bool((std @ dual.T % p == tr).all()),
        "naive_differs": witness is not None or field.ell == 1,
        "witness": witness,
    }


def subfield_fourier_power_relation_check(field: GFField, d: int) -> dict:
    """Entrywise check that the subfield block of F is the (ell/d)-th power
    of the subfield Fourier matrix.

    Both sides are supported on subfield indices (the left side is F
    masked by the subfield-support projector), so only the block is
    compared: its s^2 entries as a batch of one-entry matrices, raised to
    the power by batched exact products and compared with F's block entry
    by entry.  ``witness`` is None or the first failing (n, m).
    """
    ring = ring_for(field)
    sub = np.asarray(field.subfield_indices(d))
    power = field.ell // d
    block = [(data[np.ix_(sub, sub)].reshape(-1, 1, 1, ring.degree), e, q)
             for data, e, q in (fourier_matrix(field).packed, subfield_fourier(field, d).packed)]
    powered = block[1]
    for _ in range(power - 1):
        powered = ring.matmul(powered, block[1])
    ok = blocks_equal(ring, [block[0], powered], len(sub) ** 2)
    bad = np.flatnonzero(~ok)
    witness = (int(sub[bad[0] // len(sub)]), int(sub[bad[0] % len(sub)])) if len(bad) else None
    return {"holds": witness is None, "power": power, "witness": witness}


@cache
def fourier_spectrum(field: GFField) -> Spectrum:
    """Projectors for the eigenvalues 1, i, -1, -i of F, from F^0..F^3,
    cached per field."""
    ring = ring_for(field)
    f = fourier_matrix(field)
    powers = [OperatorMatrix.identity(ring, field.order), f, f @ f]
    powers.append(powers[2] @ f)
    return cyclic_spectrum(powers, ring)
