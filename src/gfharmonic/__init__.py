"""Exact harmonic analysis on Galois fields GF(p^ell).

Field arithmetic with Frobenius maps, traces and dual bases; cyclotomic
exact scalars; Fourier, Frobenius, displacement and symplectic operators;
and verification suites that check every operator identity bit-exactly at
desk scale.
"""

from .cyclo import CycloRing, CycloScalar, cyclotomic_polynomial, get_ring, ring_order
from .errors import (BackendMismatch, ConfigError, ConstraintViolated,
                     DegreeMismatch, DimensionMismatch, DivisionByZero,
                     DomainRestriction, EvenCharacteristic, GFHarmonicError,
                     NotADivisor, NotInSubfield, NotPrime, NotUnitary,
                     ReducibleModulus, SingularGram, WrongFixture, ZeroScaling,
                     ZeroTrace)
from .gf import DualBasisData, FieldElement, GFField, make_field
from .linalg import (Monomial, OperatorMatrix, StateVector, conjugate,
                     inner_product, proportionality_phase, tensor_list)

__all__ = [
    "make_field", "GFField", "FieldElement", "DualBasisData",
    "CycloRing", "CycloScalar", "cyclotomic_polynomial", "get_ring",
    "ring_order",
    "OperatorMatrix", "StateVector", "Monomial", "conjugate",
    "inner_product", "proportionality_phase", "tensor_list",
    "GFHarmonicError", "ConfigError", "NotPrime", "DegreeMismatch",
    "ReducibleModulus", "NotADivisor", "NotInSubfield", "DivisionByZero",
    "EvenCharacteristic", "DimensionMismatch", "BackendMismatch",
    "NotUnitary", "SingularGram", "ZeroTrace", "ZeroScaling",
    "ConstraintViolated", "DomainRestriction", "WrongFixture",
]

__version__ = "0.1.0"
