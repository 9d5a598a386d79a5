"""The p^ell-dimensional space of complex functions on GF(p^ell).

Point projectors, subfield-support projectors, and the character basis
phi_n(m) = p^(-ell/2) omega^(-Tr(n m)) with its tensor factorisation into
p-dimensional component functions.
"""

from __future__ import annotations

import numpy as np

from .cyclo import get_ring, ring_order
from .gf import GFField
from .linalg import OperatorMatrix, StateVector, root_matrix
from .linalg import inner_product  # re-export: scalar product lives with states

__all__ = [
    "ring_for", "inner_product", "point_projector",
    "subspace_projector", "phi_basis", "phi_basis_matrix", "tensor_factorize_phi",
]


def ring_for(field: GFField):
    """The shared cyclotomic scalar ring for operators over this field."""
    return get_ring(ring_order(field.p, field.ell), field.p)


def point_projector(field: GFField, k) -> OperatorMatrix:
    """Rank-one projector onto the point mass at field element k."""
    return OperatorMatrix.projector(ring_for(field), field.order, [field.element(k).index])


def subspace_projector(field: GFField, d: int) -> OperatorMatrix:
    """Projector onto functions supported on the subfield GF(p^d)."""
    return OperatorMatrix.projector(ring_for(field), field.order, field.subfield_indices(d))


def _characters(field: GFField, n):
    # the columns phi_n for an index array n: entry (m, k) is
    # p^(-ell/2) omega^(-Tr(n[k] m)), one gather of units
    ring, t = ring_for(field), field.tables()
    roots = -t.trace[t.mul[np.arange(field.order)[:, None], n]] * (ring.order // field.p)
    return root_matrix(ring, roots, field.ell)


def phi_basis(field: GFField, n) -> StateVector:
    """Character basis vector phi_n(m) = p^(-ell/2) omega^(-Tr(n m))."""
    return StateVector.from_packed(ring_for(field),
                                   _characters(field, [field.element(n).index]))


def phi_basis_matrix(field: GFField) -> OperatorMatrix:
    """Unitary whose columns are the phi_n, in canonical order."""
    return OperatorMatrix.from_packed(ring_for(field),
                                      _characters(field, np.arange(field.order)))


def component_character(field: GFField, a: int) -> StateVector:
    """p-dimensional component function with values p^(-1/2) omega^(-a b)."""
    ring, p = ring_for(field), field.p
    roots = -(a * np.arange(p)[:, None] % p) * (ring.order // p)
    return StateVector.from_packed(ring, root_matrix(ring, roots, 1))


def tensor_factorize_phi(field: GFField, n) -> list[StateVector]:
    """Component factors of phi_n, indexed by the dual components of n.

    phi_n(m) equals the product over positions l of factor_l evaluated at
    the standard component m_l; pairing dual components of n with standard
    components of m (the swapped pairing holds as well).
    """
    _, dual = field.components(n)
    return [component_character(field, a) for a in dual]
