"""Frobenius permutation operator on function space and its spectral theory.

The Frobenius operator permutes point masses the way the field Frobenius
map permutes elements; it has order ell, commutes with the Fourier matrix
and with every subfield-support projector, and its powers that fix a
subfield pointwise form a cyclic group.  Spectral projectors for the
eigenvalues exp(2*pi*i*k/ell) carry entries with denominator ell.
"""

from __future__ import annotations

from .errors import NotUnitary
from .fourier import fourier_matrix, fourier_spectrum
from .gf import GFField
from .hilbert import operator_cache, ring_for, subspace_projector
from .linalg import Monomial, OperatorMatrix, Spectrum, conjugate, cyclic_spectrum


def frobenius_monomial(field: GFField) -> Monomial:
    """The underlying permutation: column m maps to row m^p."""
    ring = ring_for(field)
    perm = [field.frobenius_index(m) for m in range(field.order)]
    return Monomial.permutation(ring, perm)


def frobenius_matrix(field: GFField) -> OperatorMatrix:
    """Dense form of the Frobenius permutation operator."""
    cache = operator_cache(field)
    if "frobenius" not in cache:
        cache["frobenius"] = frobenius_monomial(field).to_matrix()
    return cache["frobenius"]


def galois_group_H(field: GFField, d: int) -> list[OperatorMatrix]:
    """The ell/d Frobenius powers {G^d, G^2d, ..., G^ell = 1} that fix
    every function supported on GF(p^d)."""
    field.check_divisor(d)
    g = frobenius_monomial(field)
    return [(g ** (d * k)).to_matrix() for k in range(1, field.ell // d + 1)]


def conjugated_galois_group(field: GFField, u: OperatorMatrix,
                            d: int) -> list[OperatorMatrix]:
    """Conjugates {U G^(kd) U^dagger} fixing the rotated subspace U h_d."""
    field.check_divisor(d)
    if not u.is_unitary():
        raise NotUnitary("conjugating operator is not unitary")
    return [conjugate(u, g) for g in galois_group_H(field, d)]


def frobenius_fourier_commutation_check(field: GFField) -> dict:
    """Exact commutation of the Frobenius operator with F and with each
    Fourier eigenprojector."""
    g = frobenius_matrix(field)
    f = fourier_matrix(field)
    ok_f = (f @ g).equals(g @ f)
    ok_proj = all((pr @ g).equals(g @ pr)
                  for pr in fourier_spectrum(field).projectors)
    return {"commutes_with_fourier": ok_f, "commutes_with_projectors": ok_proj}


def frobenius_spectrum(field: GFField) -> Spectrum:
    """Projectors for the eigenvalues exp(2*pi*i*k/ell) of G, k = 0..ell-1,
    from G^0..G^(ell-1)."""
    cache = operator_cache(field)
    if "frobenius_spectrum" not in cache:
        g = frobenius_monomial(field)
        powers = [(g ** k).to_matrix() for k in range(field.ell)]
        cache["frobenius_spectrum"] = cyclic_spectrum(powers, ring_for(field))
    return cache["frobenius_spectrum"]


def combined_eigenspace_projector(field: GFField, d: int) -> OperatorMatrix:
    """Sum of the eigenprojectors whose eigenvalues are fixed by G^d.

    These are the projectors at indices j*ell/d; the subfield-support
    subspace for GF(p^d) sits inside this combined eigenspace.
    """
    field.check_divisor(d)
    spec = frobenius_spectrum(field)
    step = field.ell // d
    acc = spec.projectors[0]
    for j in range(1, d):
        acc = acc + spec.projectors[j * step]
    return acc


def subfield_containment_check(field: GFField, d: int) -> dict:
    """Pi_d times the combined eigenprojector equals Pi_d, both orders."""
    pi = subspace_projector(field, d)
    comb = combined_eigenspace_projector(field, d)
    return {
        "left": (pi @ comb).equals(pi),
        "right": (comb @ pi).equals(pi),
    }
