"""Fourier transform on GF(p^ell) and on its subfields.

The Fourier matrix F(n, m) = p^(-ell/2) omega^(Tr(n m)) satisfies F^4 = 1
and F F^dagger = 1 exactly.  The subfield analogue F_d uses the subfield
trace and is built by the same function on the p^d block of the subfield
indices, so the power relation between the two is stated entrywise on
that block.  Spectral projectors for the four eigenvalues 1, i, -1, -i are
built from the first three powers of F.
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
def fourier_matrix(field: GFField, d: int | None = None) -> OperatorMatrix:
    """The p^ell x p^ell Fourier matrix, or for a subfield degree d the
    p^d x p^d Fourier matrix F_d of GF(p^d) on its block, entry (n, m)
    p^(-d/2) omega^(Tr_d(n m)) for the subfield indices n, m; cached per
    (field, d)."""
    ring, tb = ring_for(field), field.tables()
    if d is None:
        tr, mul, scale = tb.trace, tb.mul, field.ell
    else:
        sub = np.asarray(field.subfield_indices(d))
        tr, mul, scale = field.subfield_traces(d), tb.mul[np.ix_(sub, sub)], d
    # entry (n, m) is p^(-scale/2) zeta^e with e the root exponent of the trace of n m
    return OperatorMatrix.from_packed(ring, root_matrix(
        ring, tr[mul] * (ring.order // field.p), scale))


def fourier_transform(field: GFField, chi: StateVector) -> StateVector:
    """The paper's Fourier transform chi -> F chi of a function on the field;
    the n-th output is the overlap of phi_n with chi.

    No suite calls it (they use F itself); it is kept as the library form
    of a paper object."""
    if chi.dim != field.order:
        raise DimensionMismatch(f"state dim {chi.dim} != field order {field.order}")
    return fourier_matrix(field).apply(chi)


def subfield_fourier(field: GFField, d: int) -> OperatorMatrix:
    """F_d of :func:`fourier_matrix` embedded in q x q zeros on the GF(p^d)
    indices: the form ``op fourier --d`` prints."""
    ring, q = ring_for(field), field.order
    sub = np.asarray(field.subfield_indices(d))
    block, e, den = fourier_matrix(field, d).packed
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
    of the subfield Fourier matrix F_d.

    F's block and F_d are read directly; F_d is raised to the power
    entrywise by ``CycloRing.times`` and compared with F's block entry by
    entry.  ``witness`` is None or the first failing (n, m).
    """
    ring = ring_for(field)
    sub = np.asarray(field.subfield_indices(d))
    power = field.ell // d
    data, e, q = fourier_matrix(field).packed
    block = (data[np.ix_(sub, sub)], e, q)
    small = fourier_matrix(field, d).packed
    powered = small
    for _ in range(power - 1):
        powered = ring.times(powered, small)
    ok = blocks_equal(ring, [block, powered], len(sub) ** 2)
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
