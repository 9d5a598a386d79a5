"""Differential tests: the packed kernels against the per-entry loops they
replaced, the label-grid identity checks of the heisenberg suite against
the per-label Monomial loops they replaced, the label laws read from the
certified phase constants against the brute-force kernels they replaced
(the Frobenius items against the suite's grid kernel), also under planted
faults in the displacements and the tables, the blocked certificate and
its constants against the q^3 ``label_grid`` and the certificate read off
it, and the whole-family closed
form, shear element sum and subfield checks against their per-element and
per-label dense loops, also under planted faults; the synthesis, sweeps and
shear laws that read each shear's convolution row against the dense shears
and ``(B, 2N, q, q)`` codes they replaced, also under planted row faults;
the action sweep's Fourier conjugates, two gathers of F per label, against
the dense F+ (D F) products they replaced, also under planted faults in F;
the conjugated shear against its per-difference ``sum_of_roots``
construction; the four Heisenberg label sums, products with the character
table, against the root sums and scatters they replaced, also under
planted faults in the trace table, the label grid and one entry; the
element arrays of Sp(2, GF(q)) (enumeration, sampling, synthesis from one
row) against the object enumeration, the object sampler and the recursive
synthesis; the
stacked marginal checks, shear laws and random operators against the
per-label loops, per-pair products and per-scalar builder they replaced; the
frame marginal kernel against the stacked targets and stacked conjugations
it replaced; the marginal line relations on the phase constants against
that kernel's line-sum scatters and rank-one products, on every element of
Sp(2, GF(q)) for q <= 9 and under planted faults in the constants, the
tables, the labels and the frame; and
the generators, monomial products, diagonal and character operators and
``CycloRing.pack`` against the per-index builders, tuple monomials,
``{(n, m): scalar}`` matrices and per-scalar alignment they replaced, also
under faults planted in the field's index arrays; the monomial families
against per-member products and the ``(perm, phase)`` array kernels they
replaced; and the Frobenius suite, which multiplies G and its Galois
members by gather, against its dense form, also under planted faults.

The reference functions below are the earlier implementations, which add
one CycloScalar at a time into ScalarAccumulators.  Canonical forms are
unique, so equal values must give identical (coeffs, scale_exp, denom)
triples entry by entry.  Inputs mix scale exponents, denominators and
zeros, and the ``big`` variants put one entry past the int64 bound so that
the Python-int paths of ``root_sum``, ``add`` and ``matmul`` run.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from gfharmonic import cyclo, fourier, frobenius, heisenberg, hilbert
from gfharmonic import symplectic as sp
from gfharmonic.cyclo import ScalarAccumulator
from gfharmonic.errors import DomainRestriction, NotInSubfield
from gfharmonic.fourier import fourier_matrix
from gfharmonic.gf import GFField, make_field
from gfharmonic.heisenberg import (label_sum, marginal_sum_alpha, marginal_sum_beta,
                                   overcomplete_expansion_check,
                                   resolution_of_identity_check, weyl_expand,
                                   weyl_reconstruct)
from gfharmonic.hilbert import phi_basis, point_projector, ring_for
from gfharmonic.linalg import (EXACT, Monomial, OperatorMatrix, StateVector, blocks_equal,
                               conjugate, inner_product, outer,
                               proportionality_phase, root_matrix)
from gfharmonic.symplectic import element_row, synthesize
from gfharmonic.verify import (SuiteReport, VerifyConfig, _generator_laws, _random_matrix,
                               _random_state, _ranks_item, _spectral_items, frobenius_suite,
                               gf_suite, heisenberg_suite, symplectic_suite)

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3)]
BIG = 10 ** 20  # past int64 once multiplied by any ring table entry
REF_BLOCK_ENTRIES = 1 << 16  # entries per block of the blocked references below


def entries(field, row):
    """(r, s, t, u) of one element row as field elements: the form the
    per-element references compute on, by field-element arithmetic."""
    return tuple(field.element(int(x)) for x in row)


def ref_image(field, row, alpha, beta):
    """The label image (u a + s b, t a + r b) by field-element arithmetic."""
    r, s, t, u = entries(field, row)
    return (u * alpha + s * beta, t * alpha + r * beta)


def state_of(ring, values):
    """An exact state from its canonical scalar values."""
    values = list(values)
    return StateVector(len(values), EXACT, ring, values)


def point_mass(ring, dim, k):
    return state_of(ring, [ring.one if i == k else ring.zero for i in range(dim)])


def omega_exponent(ring, a):
    """Root exponent k with zeta^k = omega^a."""
    return a % ring.char * (ring.order // ring.char)


def sqrt_char(ring):
    """sqrt(p) as an exact scalar: p times p^(-1/2), in canonical form."""
    return ring.scalar([ring.char] + [0] * (ring.degree - 1), 1)


def canonical(rows):
    return [[(x.coeffs, x.scale_exp, x.denom) for x in row] for row in rows]


def random_scalar(ring, rng):
    if rng.random() < 0.2:
        return ring.zero
    return ring.scalar([rng.randint(-3, 3) for _ in range(ring.degree)],
                       rng.randint(0, 3), rng.choice((1, 2, 3, 4, 6)))


def random_rows(ring, n, m, rng, big=False):
    rows = [[random_scalar(ring, rng) for _ in range(m)] for _ in range(n)]
    if big:
        rows[n // 2][m - 1] = ring.scalar([BIG + k for k in range(ring.degree)], 1, 1)
    return rows


def random_operator(field, rng, big=False):
    ring = ring_for(field)
    return OperatorMatrix(field.order, EXACT, ring,
                          random_rows(ring, field.order, field.order, rng, big))


def random_state(ring, n, rng, big=False):
    return state_of(ring, [row[0] for row in random_rows(ring, n, 1, rng, big)])


# -- the per-entry references ---------------------------------------------------

def ref_trace(rows):
    acc = ScalarAccumulator(rows[0][0].ring)
    for i in range(len(rows)):
        acc.add(rows[i][i])
    return acc.value()


def ref_dot(ring, xs, ys):
    acc = ScalarAccumulator(ring)
    for a, b in zip(xs, ys):
        acc.add_product(a, b)
    return acc.value()


def ref_tensor(a, b):
    da, db = len(a), len(b)
    return [[a[n % da][m % da] * b[n // da][m // da] for m in range(da * db)]
            for n in range(da * db)]


def ref_weyl_expand(field, theta_rows):
    q = field.order
    out = []
    for a in range(q):
        row = []
        for b in range(q):
            mono = displacement_monomial(field, a, b)
            acc = ScalarAccumulator(mono.ring)
            for m in range(q):
                acc.add(theta_rows[m][mono.perm[m]], root=mono.phase[m])
            row.append(acc.value())
        out.append(row)
    return out


def ref_label_sum(field, labels, weights):
    """p^-ell sum of w D(label), adding entry by entry."""
    ring = ring_for(field)
    q = field.order
    acc = [[ScalarAccumulator(ring) for _ in range(q)] for _ in range(q)]
    for (a, b), w in zip(labels, weights):
        mono = displacement_monomial(field, a, b)
        for m in range(q):
            acc[mono.perm[m]][m].add(w, root=mono.phase[m])
    inv_q = ring.rational(1, q)
    return [[cell.value() * inv_q for cell in row] for row in acc]


def ref_weyl_reconstruct(field, values):
    q = field.order
    labels = [(a, b) for a in range(q) for b in range(q)]
    return ref_label_sum(field, labels, [values[field.neg_index(a)][field.neg_index(b)]
                                         for a, b in labels])


def ref_resolution_holds(field, theta_rows):
    """The divide-first check: p^-ell sum D (Theta / tr Theta) D+ = 1."""
    ring = ring_for(field)
    q = field.order
    inv_tr = ref_trace(theta_rows).inverse()
    scaled = [[x * inv_tr for x in row] for row in theta_rows]
    acc = [[ScalarAccumulator(ring) for _ in range(q)] for _ in range(q)]
    for a in range(q):
        for b in range(q):
            mono = displacement_monomial(field, a, b)
            inv = [0] * q
            for m, n in enumerate(mono.perm):
                inv[n] = m
            for n in range(q):
                for m in range(q):
                    acc[n][m].add(scaled[inv[n]][inv[m]],
                                  root=mono.phase[inv[n]] - mono.phase[inv[m]])
    inv_q = ring.rational(1, q)
    total = [[cell.value() * inv_q for cell in row] for row in acc]
    return canonical(total) == canonical(OperatorMatrix.identity(ring, q).rows)


def ref_overcomplete_holds(field, psi, chi):
    ring = ring_for(field)
    q = field.order
    acc = [ScalarAccumulator(ring) for _ in range(q)]
    for a in range(q):
        for b in range(q):
            mono = displacement_monomial(field, a, b)
            moved = [None] * q
            for m in range(q):
                moved[mono.perm[m]] = psi[m].times_root(mono.phase[m])
            u = ref_dot(ring, [x.conj() for x in moved], chi)
            for n in range(q):
                acc[n].add(u * moved[n])
    inv_q = ring.rational(1, q)
    return canonical([[c.value() * inv_q for c in acc]]) == canonical([chi])


def displacement_monomial(field, alpha, beta, phase_coeff=None):
    """D(alpha, beta) read through the module, so that a fault planted
    there reaches the references too."""
    return heisenberg.displacement_monomial(field, alpha, beta, phase_coeff)


def perturbed_arrays(monkeypatch, field):
    """Make D(0, 1) wrong in one phase, for the per-label and the family path."""
    original = heisenberg.displacement_monomial
    step = ring_for(field).order // field.p

    def wrong(field_, alpha, beta, phase_coeff=None, d=None):
        mono = original(field_, alpha, beta, phase_coeff, d)
        if d is not None:  # the fault is the field's; subfield blocks stay as built
            return mono
        hit = (np.asarray(field_.indices(alpha)) == 0) & (np.asarray(field_.indices(beta)) == 1)
        return Monomial(mono.ring, mono.perm, mono.phase + np.where(
            hit[..., None] & (np.arange(field_.order) == 0), step, 0))

    monkeypatch.setattr(heisenberg, "displacement_monomial", wrong)


def label_grid(field, phase_coeff=None):
    """D(a, b) for every label: the family of q * q members l = a * q + b,
    stored as int32 arrays of shape (q * q, q), each block of
    ``heisenberg.label_blocks`` one ``displacement_monomial`` gather written
    into them: the q^3 grid the suite built before it read only the phase
    constants, kept as the reference the grid-reading kernels below run on.
    The gather goes through the module, so a fault planted there reaches it."""
    q = field.order
    perm, phase = (np.empty((q * q, q), dtype=np.int32) for _ in range(2))
    labels = np.arange(q * q)
    for s in heisenberg.label_blocks(q * q, q):
        block = heisenberg.displacement_monomial(field, *np.divmod(labels[s], q), phase_coeff)
        perm[s], phase[s] = block.perm, block.phase
    return Monomial(ring_for(field), perm, phase)


@pytest.fixture(params=FIELDS, ids=lambda pe: f"GF({pe[0]}^{pe[1]})")
def field(request):
    return make_field(*request.param)


# -- label sums -------------------------------------------------------------------

@pytest.mark.parametrize("big", [False, True])
def test_weyl_round_trip_matches_reference(field, big):
    rng = random.Random(field.order * 10 + big)
    theta = random_operator(field, rng, big)
    table = weyl_expand(field, theta)
    assert canonical(table.rows) == canonical(ref_weyl_expand(field, theta.rows))
    rebuilt = weyl_reconstruct(field, table)
    assert canonical(rebuilt.rows) == canonical(ref_weyl_reconstruct(field, table.rows))
    assert rebuilt.equals(theta)


def test_root_sum_blocks_agree(field, monkeypatch):
    # the products take no block budget of the scalar kernels
    theta = random_operator(field, random.Random(field.order), big=True)
    want = canonical(weyl_expand(field, theta).rows)
    monkeypatch.setattr(cyclo, "BLOCK_ENTRIES", 3)
    assert canonical(weyl_expand(field, theta).rows) == want


@pytest.mark.parametrize("entries", [1, 100])
def test_weyl_label_blocks_agree(field, entries, monkeypatch):
    """One label per block, or a few, against the default budget: the
    products with the character table read no label blocks, so the
    triples cannot change."""
    theta = random_operator(field, random.Random(field.order + entries), big=True)
    table = weyl_expand(field, theta)
    rebuilt = weyl_reconstruct(field, table)
    monkeypatch.setattr(heisenberg, "LABEL_BLOCK_ENTRIES", entries)
    for got, want in ((weyl_expand(field, theta), table),
                      (weyl_reconstruct(field, table), rebuilt)):
        assert np.array_equal(got.packed[0], want.packed[0]) and got.packed[1:] == want.packed[1:]
    assert rebuilt.equals(theta)


@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (3, 3)], ids=str)
def test_packed_weyl_round_trip_matches_unpack_pack_path(pe):
    # the path the packed table replaced: unpack the q^2 coefficients, then
    # pack them again at the negated labels as the reconstruction weights
    field = make_field(*pe)
    ring, q = ring_for(field), field.order
    theta = random_operator(field, random.Random(q + 1), big=True)
    table = weyl_expand(field, theta)
    values = table.rows
    assert_same_triple(table.packed, ring.pack(values))
    neg = field.tables().neg.tolist()
    weights = ring.pack([(values[a][b],) for a in neg for b in neg])
    a, b = np.divmod(np.arange(q * q), q)
    rebuilt = weyl_reconstruct(field, table)
    assert_same_triple(rebuilt.packed, label_sum_stack(field, a[None], b[None], weights))
    assert rebuilt.equals(theta)


def ref_fourier_power_relation(field, d):
    """The per-entry loop: the first (n, m) of the subfield block where the
    entry of F is not the CycloScalar power of the subfield entry."""
    f, sub_f = fourier_matrix(field).rows, fourier.subfield_fourier(field, d).rows
    sub, power = field.subfield_indices(d), field.ell // d
    return next(((n, m) for n in sub for m in sub if f[n][m] != sub_f[n][m] ** power), None)


@pytest.mark.parametrize("pe,d", [((3, 2), 1), ((5, 2), 1), ((3, 3), 1), ((3, 4), 2),
                                  ((3, 4), 1), ((2, 4), 2), ((5, 3), 1)], ids=str)
def test_packed_power_relation_names_the_first_planted_entry(pe, d, monkeypatch):
    field = make_field(*pe)
    ring, sub = ring_for(field), field.subfield_indices(d)
    got = fourier.subfield_fourier_power_relation_check(field, d)
    assert (got["holds"], got["witness"]) == (True, ref_fourier_power_relation(field, d))
    original = fourier.fourier_matrix

    def planted(f, d_=None):  # two entries of F_d's block times zeta
        if d_ is None:
            return original(f)
        rows = [list(row) for row in original(f, d_).rows]
        for n, m in ((len(sub) - 1, 1), (1, len(sub) - 1)):
            rows[n][m] = rows[n][m].times_root(1)
        return OperatorMatrix(len(sub), EXACT, ring, rows)
    monkeypatch.setattr(fourier, "fourier_matrix", planted)
    got = fourier.subfield_fourier_power_relation_check(field, d)
    assert not got["holds"] and got["power"] == field.ell // d
    assert got["witness"] == ref_fourier_power_relation(field, d) == (sub[1], sub[-1])


def test_marginal_sums_match_reference(field):
    q = field.order
    ring = ring_for(field)
    held = range(q) if q <= 9 else (0, 1, q - 1)
    for h in held:
        assert canonical(marginal_sum_alpha(field, h).rows) == canonical(
            ref_label_sum(field, [(a, h) for a in range(q)], [ring.one] * q))
        assert canonical(marginal_sum_beta(field, h).rows) == canonical(
            ref_label_sum(field, [(h, b) for b in range(q)], [ring.one] * q))


@pytest.mark.parametrize("big", [False, True])
def test_weighted_label_sum_matches_reference(field, big):
    # repeated labels and weights with mixed (E, Q), packed as one column
    rng = random.Random(field.order * 7 + big)
    ring = ring_for(field)
    q = field.order
    labels = [(rng.randrange(q), rng.randrange(q)) for _ in range(2 * q)]
    weights = [row[0] for row in random_rows(ring, len(labels), 1, rng, big)]
    alpha, beta = (np.array(x) for x in zip(*labels))
    got = label_sum(field, alpha, beta, ring.pack([(w,) for w in weights]))
    assert canonical(got.rows) == canonical(ref_label_sum(field, labels, weights))


def rank_one_with_trace(field, rng):
    ring = ring_for(field)
    while True:
        u = random_state(ring, field.order, rng)
        v = random_state(ring, field.order, rng)
        if not inner_product(v, u).is_zero:
            return outer(u, v)


def test_resolution_of_identity_matches_divide_first_reference(field, monkeypatch):
    # one rank-one Theta everywhere; on q <= 9 also a dense Theta, and both
    # again with one displacement phase perturbed, where both checks must fail
    rng = random.Random(field.order)
    thetas = [rank_one_with_trace(field, rng)]
    if field.order <= 9:
        thetas.append(random_operator(field, rng))
    assert not ref_trace(thetas[-1].rows).is_zero
    for perturb in (False, True) if field.order <= 9 else (False,):
        if perturb:
            perturbed_arrays(monkeypatch, field)
        for theta in thetas:
            want = ref_resolution_holds(field, theta.rows)
            assert want is not perturb
            assert resolution_of_identity_check(field, theta, certificate(field))["holds"] is want


@pytest.mark.parametrize("perturb", [False, True])
def test_overcomplete_expansion_matches_reference(field, perturb, monkeypatch):
    ring = ring_for(field)
    psi = phi_basis(field, 0)
    chi = random_state(ring, field.order, random.Random(field.order), big=True)
    if perturb:
        perturbed_arrays(monkeypatch, field)
    want = ref_overcomplete_holds(field, psi.values, chi.values)
    assert want is not perturb
    assert overcomplete_expansion_check(field, psi, chi, certificate(field))["holds"] is want


def test_transformed_marginal_sums_match_reference(field):
    # the primed sums: label_sum on the image labels against the sum of the
    # displacements' dense matrices; the rank-one targets against the
    # per-entry products of columns of S
    q = field.order
    ring = ring_for(field)
    row = element_row(field, 1, 1, 2)
    s_op = synthesize(field, row)
    s_rows = s_op.rows
    tb = field.tables()
    for b in (range(q) if q <= 9 else (0, 1)):
        labels = [tuple(x.index for x in ref_image(field, row, field.element(a), field.element(b)))
                  for a in range(q)]
        got = label_sum(field, *(np.array(x) for x in zip(*labels)))
        dense = [displacement_monomial(field, *lab).to_matrix().rows for lab in labels]
        total = dense[0]
        for mat in dense[1:]:
            total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, mat)]
        want = [[x * ring.rational(1, q) for x in row] for row in total]
        assert canonical(got.rows) == canonical(want)
        k = int(tb.mul[field.two_inverse, b])
        col = [s_rows[n][k] for n in range(q)]
        neg_col = [s_rows[n][field.neg_index(k)] for n in range(q)]
        unit = outer(state_of(ring, neg_col), state_of(ring, col))
        assert canonical(unit.rows) == canonical([[x * y.conj() for y in col] for x in neg_col])
    f = fourier_matrix(field)
    f_rows = f.rows
    k = 1 % q
    u = [ref_dot(ring, s_rows[n], [f_rows[j][k] for j in range(q)]) for n in range(q)]
    w = [ref_dot(ring, f_rows[k], [s_rows[n][j].conj() for j in range(q)]) for n in range(q)]
    point = point_mass(ring, q, k)
    got = outer(s_op.apply(f.apply(point)), s_op.apply(f.adjoint().apply(point)))
    assert canonical(got.rows) == canonical([[x * y for y in w] for x in u])


# -- elementwise ops, traces, products with states ------------------------------

@pytest.mark.parametrize("big", [False, True])
def test_elementwise_ops_match_reference(field, big):
    rng = random.Random(field.order * 3 + big)
    ring = ring_for(field)
    q = field.order
    a, b = random_operator(field, rng), random_operator(field, rng, big)
    ar, br = a.rows, b.rows
    assert canonical((a + b).rows) == canonical(
        [[x + y for x, y in zip(r, s)] for r, s in zip(ar, br)])
    assert canonical((a - b).rows) == canonical(
        [[x - y for x, y in zip(r, s)] for r, s in zip(ar, br)])
    assert (a - a).equals(OperatorMatrix.zeros(ring, q))
    factor = ring.scalar([rng.randint(-3, 3) for _ in range(ring.degree)], 3, 5)
    for f in (factor, -2, 0, ring.zero):
        assert canonical(b.scaled(f).rows) == canonical([[x * f for x in r] for r in br])
    for m in (a, b):
        assert m.trace() == ref_trace(m.rows)

    small = [OperatorMatrix(n, EXACT, ring, random_rows(ring, n, n, rng, big))
             for n in (2, 3)]
    assert canonical(small[0].tensor(small[1]).rows) == canonical(
        ref_tensor(small[0].rows, small[1].rows))

    x, y = random_state(ring, q, rng), random_state(ring, q, rng, big)
    xv, yv = x.values, y.values
    assert canonical([(x + y).values]) == canonical([[s + t for s, t in zip(xv, yv)]])
    assert canonical([(x - y).values]) == canonical([[s - t for s, t in zip(xv, yv)]])
    assert canonical([y.scaled(factor).values]) == canonical([[t * factor for t in yv]])
    assert inner_product(x, y) == ref_dot(ring, [s.conj() for s in xv], yv)
    assert canonical([b.apply(x).values]) == canonical(
        [[ref_dot(ring, row, xv) for row in br]])

    perm = [0] + rng.sample(range(1, q), q - 1)  # at least one fixed point
    mono = Monomial(ring, perm, [rng.randrange(ring.order) for _ in range(q)])
    acc = ScalarAccumulator(ring)
    for m in range(q):
        if mono.perm[m] == m:
            acc.add(ring.one, root=mono.phase[m])
    assert mono.trace() == acc.value()
    moved = [None] * q
    for m in range(q):
        moved[mono.perm[m]] = yv[m].times_root(mono.phase[m])
    assert canonical([mono.apply(y).values]) == canonical([moved])


# -- label identities of the heisenberg suite -----------------------------------

LABEL_ITEMS = ("composition_law", "adjoint_negates_label", "fourier_maps_labels",
               "frobenius_maps_labels", "subfield_labels_fixed_by_frobenius",
               "orthogonality_under_trace")
LABEL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


def composition_law_holds(field, grid, first, second):
    """D(l1) D(l2) = omega^(c (Tr(a1 b2) - Tr(b1 a2))) D(l1 + l2), c = 1/2,
    for every pair l1 = first[k], l2 = second[k] of members of a
    ``label_grid``.

    The product maps m to perm1[perm2[m]] with phase phase2[m] +
    phase1[perm2[m]]; both are compared with the row of the summed label.
    The rows are gathered straight from the grid's arrays, and
    ``grid[first] @ grid[second]`` would first copy out each first factor.
    The brute-force kernel ``heisenberg.label_laws`` replaced.
    """
    q, p, t = field.order, field.p, field.tables()
    perm, phase = grid.perm, grid.phase
    step = ring_for(field).order // p
    for s in heisenberg.label_blocks(len(first), q):
        (a1, b1), (a2, b2) = np.divmod(first[s], q), np.divmod(second[s], q)
        l3 = t.add[a1, a2] * q + t.add[b1, b2]
        after = first[s][:, None] * q + perm[second[s]]  # flat index of (l1, perm2[m])
        shift = field.two_inverse * (t.trace[t.mul[a1, b2]] - t.trace[t.mul[b1, a2]]) % p
        got = phase[second[s]] + phase.reshape(-1)[after] - phase[l3]
        if not (np.array_equal(perm.reshape(-1)[after], perm[l3])
                and (got % (p * step) == shift[:, None] * step).all()):
            return False
    return True


def trace_orthogonality_holds(field, grid, first, second):
    """tr(D(l1)^dagger D(l2)) = q [l1 == l2] for every pair l1 = first[k],
    l2 = second[k] of members of a ``label_grid``.

    The trace is one root-sum per block of pairs, a unit term
    zeta^(phase2[m] - phase1[m]) for each m with perm1[m] == perm2[m]; at
    (E, Q) = (0, 1) its coefficients are q times those of 1 on the diagonal
    pairs and 0 elsewhere.  A row's largest temporary is its root-sum slot
    of N coefficients, or its q-entry rows.  The brute-force kernel
    ``heisenberg.label_laws`` replaced.
    """
    ring, q = ring_for(field), field.order
    unit = ring.root_coeffs()[0]
    for s in heisenberg.label_blocks(len(first), max(q, ring.order)):
        l1, l2 = first[s], second[s]
        pair, m = np.nonzero(grid.perm[l1] == grid.perm[l2])
        trace, _, _ = ring.root_sum(unit, grid.phase[l2[pair], m] - grid.phase[l1[pair], m],
                                    pair, (len(l1),))
        if not np.array_equal(trace, np.where((l1 == l2)[:, None], q * unit, 0)):
            return False
    return True


def ref_composition_exhaustive(field, coeff):
    """All-pairs composition law over the displacement rows, phases[b, a]
    the phase row of D(a, b)."""
    q = field.order
    half = field.two_inverse
    n_order = ring_for(field).order
    step = n_order // field.p
    tables = field.tables()
    tr_prod = tables.trace[tables.mul]
    idx = np.arange(q)
    family = displacement_monomial(field, idx, idx[:, None], coeff)
    perm_of, phases = family.perm[:, 0], family.phase
    for b1 in range(q):
        p1 = perm_of[b1]
        for b2 in range(q):
            p2 = perm_of[b2]
            b3 = field.add_index(b1, b2)
            if not np.array_equal(p1[p2], perm_of[b3]):
                return False
            for a1 in range(q):
                f1_at = phases[b1][a1][p2]
                base_rows = phases[b3][tables.add[a1]]
                shift = (step * ((half * (tr_prod[a1, b2] - tr_prod[b1])) % field.p)) % n_order
                delta = (phases[b2] + f1_at[np.newaxis, :] - base_rows
                         - shift[:, np.newaxis]) % n_order
                if delta.any():
                    return False
    return True


def ref_composition_sampled(field, cache, quads):
    half = field.two_inverse
    for a1, b1, a2, b2 in quads:
        ph = half * (field.trace_index(field.mul_index(a1, b2))
                     - field.trace_index(field.mul_index(b1, a2)))
        rhs = cache[(field.add_index(a1, a2), field.add_index(b1, b2))].scaled_by_root(
            omega_exponent(ring_for(field), ph))
        if cache[(a1, b1)] @ cache[(a2, b2)] != rhs:
            return False
    return True


def monomial_cache(field, coeff):
    q = field.order
    return {(a, b): displacement_monomial(field, a, b, phase_coeff=coeff)
            for a in range(q) for b in range(q)}


def ref_label_verdicts(field, coeff):
    """The six label identities through a q^2-entry Monomial cache."""
    rng = random.Random(VerifyConfig().seed + 2)
    q = field.order
    ring = ring_for(field)
    labels = [(a, b) for a in range(q) for b in range(q)]
    cache = monomial_cache(field, coeff)
    out = {"composition_law": ref_composition_exhaustive(field, coeff)}
    out["adjoint_negates_label"] = all(
        cache[(a, b)].adjoint() == cache[(field.neg_index(a), field.neg_index(b))]
        for a, b in labels)

    n_order = ring.order
    tables = field.tables()
    f_exp = (n_order // field.p * tables.trace[tables.mul]) % n_order
    ok = True
    for a, b in labels:
        perm, phase = cache[(a, b)].perm, cache[(a, b)].phase
        other, o_phase = cache[(b, field.neg_index(a))].perm, cache[(b, field.neg_index(a))].phase
        inv = np.argsort(other)
        if ((f_exp[:, perm] + phase - o_phase[inv][:, None] - f_exp[inv]) % n_order).any():
            ok = False
            break
    out["fourier_maps_labels"] = ok

    g = frobenius.frobenius_monomial(field)
    ok = True
    for lam in range(field.ell):
        gl = g ** lam
        for a, b in labels:
            rhs = cache[(field.frobenius_index(a, lam), field.frobenius_index(b, lam))]
            if (gl @ cache[(a, b)]) @ gl.adjoint() != rhs:
                ok = False
                break
    out["frobenius_maps_labels"] = ok
    ok = True
    for d in field.divisors():
        gd = g ** d
        for a in field.subfield_indices(d):
            for b in field.subfield_indices(d):
                if (gd @ cache[(a, b)]) @ gd.adjoint() != cache[(a, b)]:
                    ok = False
    out["subfield_labels_fixed_by_frobenius"] = ok

    pairs = ([(x, y) for x in labels for y in labels] if q <= 9 else
             [(rng.choice(labels), rng.choice(labels)) for _ in range(300)])
    out["orthogonality_under_trace"] = all(
        (cache[l1].adjoint() @ cache[l2]).trace()
        == (ring.from_int(q) if l1 == l2 else ring.zero) for l1, l2 in pairs)
    return out


def grid_label_verdicts(field, coeff):
    rep = heisenberg_suite(field, VerifyConfig(displacement_phase_coeff=coeff))
    return {item.name: item.status == "pass" for item in rep.items
            if item.name in LABEL_ITEMS}


@pytest.mark.parametrize("coeff", [None, 1])
@pytest.mark.parametrize("pe", LABEL_FIELDS, ids=lambda pe: f"GF({pe[0]}^{pe[1]})")
def test_label_identities_match_monomial_reference(pe, coeff):
    field = make_field(*pe)
    want = ref_label_verdicts(field, coeff)
    assert grid_label_verdicts(field, coeff) == want
    # the true phase passes everything, the wrong one breaks the phase laws
    assert all(want.values()) is (coeff is None)


@pytest.mark.parametrize("coeff", [None, 1])
@pytest.mark.parametrize("pe", LABEL_FIELDS, ids=lambda pe: f"GF({pe[0]}^{pe[1]})")
def test_sampled_composition_matches_monomial_reference(pe, coeff):
    field = make_field(*pe)
    q = field.order
    rng = random.Random(q)
    quads = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(400)]
    first, second = (np.array(quads).reshape(-1, 2, 2) @ (q, 1)).T
    got = composition_law_holds(field, label_grid(field, coeff), first, second)
    assert got is ref_composition_sampled(field, monomial_cache(field, coeff), quads)
    assert got is (coeff is None)


def wrong_frobenius(monkeypatch):
    """Make the Frobenius permutation swap two points of the prime field."""
    original = frobenius.frobenius_monomial

    def wrong(field):
        perm = list(original(field).perm)
        perm[1], perm[2] = perm[2], perm[1]
        return Monomial.permutation(ring_for(field), perm)

    monkeypatch.setattr(frobenius, "frobenius_monomial", wrong)


@pytest.mark.parametrize("fault", ["phase", "frobenius", "shift"])
def test_planted_faults_give_the_reference_verdicts(fault, monkeypatch):
    field = make_field(3, 2)
    coeff = None
    if fault == "phase":
        perturbed_arrays(monkeypatch, field)
        broken = "composition_law"
    elif fault == "frobenius":
        wrong_frobenius(monkeypatch)
        broken = "frobenius_maps_labels"
    else:  # the true displacements, with the composition phase's 1/2 read as 0
        coeff = field.two_inverse
        monkeypatch.setattr(GFField, "two_inverse", property(lambda self: 0))
        broken = "composition_law"
    got = grid_label_verdicts(field, coeff)
    # the suite reads D as the certificate states it, so a planted phase
    # offset fails every label item, also where the reference holds
    cert = heisenberg.grid_certificate(field, coeff)[0]
    assert got == {name: ok and cert is None
                   for name, ok in ref_label_verdicts(field, coeff).items()}
    assert not got[broken]


def test_composition_law_compares_the_permutations():
    # for l2 = (0, 1), D(l1) D(l2) never reads the permutation of l1 in
    # its phase, so only the permutation half sees a wrong row for l1
    field = make_field(3, 2)
    grid = label_grid(field)
    first, second = np.array([5]), np.array([1])
    assert composition_law_holds(field, grid, first, second)
    perm = grid.perm.copy()
    perm[5, [0, 1]] = perm[5, [1, 0]]
    assert not composition_law_holds(field, Monomial(grid.ring, perm, grid.phase), first, second)


# -- whole-family kernels of the symplectic and subfield checks -------------------
#
# The references are the per-element and per-label bodies these kernels
# replaced: dense products, per-entry sum_of_roots and CycloScalar powers.

def ref_closed_form_matrix(field, row):
    """The closed form built from field-element arithmetic, one Gauss sum."""
    ring = ring_for(field)
    r, s, t, _ = entries(field, row)
    w = s * t + 1
    half = field.element(field.two_inverse)
    scale = sp.gauss_sum(field, -(half * w.inverse() * r * t)) * ring.rational(1, field.order)
    coef = (field.element(2) * r * t).inverse()
    rows = [[scale * ring.omega(field.trace_index(
                (coef * (w * n * n + r * r * m * m - field.element(2) * r * n * m)).index))
             for m in field.elements()] for n in field.elements()]
    return OperatorMatrix(field.order, EXACT, ring, rows)


def ref_closed_form_check(field, row):
    """The per-element check: synthesis against the closed form, densely."""
    phase = proportionality_phase(synthesize(field, row), sp.closed_form_matrix(field, row))
    return {"proportional": phase is not None, "phase": phase,
            "phase_is_one": phase == ring_for(field).one if phase is not None else False}


def ref_shear_x_closed_form(field, xi):
    """Every entry as its own q-term sum_of_roots."""
    ring = ring_for(field)
    c = (field.element(field.two_inverse) * field.element(xi)).index
    tr, mul = field.trace_index, field.mul_index
    q = field.order
    return [[ring.sum_of_roots(
                (omega_exponent(ring, tr(mul(c, mul(k, k))) + tr(mul(k, n)) - tr(mul(k, m)))
                 for k in range(q)), 2 * field.ell)
             for m in range(q)] for n in range(q)]


def ref_subfield_displacement_arrays(field, d, alpha, beta, phase_coeff=None):
    """D_d(alpha, beta) on the GF(p^d) block, for two subfield labels or two
    index arrays of them, as the subfield builder of its own that
    ``displacement_monomial(..., d=d)`` replaced; ``phase_coeff`` overrides
    c = 1/2 as there.  Block position k is the field index sub[k]."""
    sub = np.asarray(field.subfield_indices(d))
    t, q = field.tables(), field.order
    pos = np.full(q, -1)
    pos[sub] = np.arange(len(sub))
    alpha, beta = np.asarray(field.indices(alpha)), np.asarray(field.indices(beta))
    if (pos[alpha] < 0).any() or (pos[beta] < 0).any():
        raise NotInSubfield(f"labels are not all in GF({field.p}^{d})")
    c = field.two_inverse if phase_coeff is None else phase_coeff % field.p
    tr = field.subfield_traces(d)
    base = tr[t.mul[c, t.mul[alpha, beta]]]
    phase = ((tr[t.mul[alpha[..., None], sub]] + base[..., None]) % field.p
             * (ring_for(field).order // field.p))
    return Monomial(ring_for(field), pos[t.add[beta[..., None], sub]], phase)


def ref_subfield_fourier(field, d):
    """F_d embedded in q x q zeros on the subfield indices, built from the
    tables as before the block builder."""
    ring, q, tb = ring_for(field), field.order, field.tables()
    sub = np.asarray(field.subfield_indices(d))
    block, e, den = root_matrix(ring, field.subfield_traces(d)[tb.mul[np.ix_(sub, sub)]]
                                * (ring.order // field.p), d)
    data = np.zeros((q, q, ring.degree), dtype=block.dtype)
    data[np.ix_(sub, sub)] = block
    return OperatorMatrix.from_packed(ring, (data, e, den))


def embedded_subfield_displacement(field, d, alpha, beta):
    """D_d(alpha, beta) embedded in q x q zeros on the subfield indices, its
    block read through ``heisenberg.displacement_monomial`` so that a fault
    planted there reaches it."""
    sub, ring, q = np.asarray(field.subfield_indices(d)), ring_for(field), field.order
    mono = heisenberg.displacement_monomial(field, alpha, beta, d=d)
    data = np.zeros((q, q, ring.degree), dtype=np.int64)
    data[sub[mono.perm], sub] = ring.root_coeffs()[mono.phase]
    return OperatorMatrix.from_packed(ring, (data, 0, 1))


def ref_intertwining(field, d):
    """Dense conjugations by the embedded subfield Fourier matrix, for every
    subfield label."""
    sub_f = fourier.subfield_fourier(field, d)
    sub_f_adj = sub_f.adjoint()
    ring, labels = ring_for(field), field.subfield_indices(d)
    xs = {b: embedded_subfield_displacement(field, d, 0, b) for b in labels}
    ok_z = ok_x = ok_braid = True
    for a in labels:
        z_a = embedded_subfield_displacement(field, d, a, 0)
        if not ((sub_f @ z_a) @ sub_f_adj).equals(
                embedded_subfield_displacement(field, d, 0, field.neg_index(a))):
            ok_z = False
        if not ((sub_f @ xs[a]) @ sub_f_adj).equals(z_a):
            ok_x = False
        for b, x_b in xs.items():
            t = field.subfield_trace(field.mul_index(a, b), d)
            if not (z_a @ x_b).equals((x_b @ z_a).scaled(ring.omega(t))):
                ok_braid = False
    return {"z_to_shift": ok_z, "shift_to_z": ok_x, "braiding": ok_braid}


def ref_power_relation(field, d, a, b):
    """Dense matrices, compared entry by entry as CycloScalar powers."""
    dop = heisenberg.displacement(field, a, b).rows
    small = embedded_subfield_displacement(field, d, a, b).rows
    power = field.ell // d
    sub = field.subfield_indices(d)
    return all(dop[n][m] == small[n][m] ** power for n in sub for m in sub)


BUILDER_FIELDS = [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]


@pytest.mark.parametrize("coeff", [None, 1])
@pytest.mark.parametrize("pe", BUILDER_FIELDS, ids=lambda pe: f"GF({pe[0]}^{pe[1]})")
def test_subfield_builders_match_their_references(pe, coeff):
    # every d | ell and every pair of subfield labels, as one family and one
    # pair at a time, and F_d on its block and embedded
    field = make_field(*pe)
    for d in field.divisors():
        sub = np.asarray(field.subfield_indices(d))
        a, b = np.repeat(sub, len(sub)), np.tile(sub, len(sub))
        assert (heisenberg.displacement_monomial(field, a, b, coeff, d)
                == ref_subfield_displacement_arrays(field, d, a, b, coeff))
        assert all(heisenberg.displacement_monomial(field, x, y, coeff, d)
                   == ref_subfield_displacement_arrays(field, d, x, y, coeff)
                   for x, y in zip(a.tolist(), b.tolist()))
        want = ref_subfield_fourier(field, d)
        assert_same_triple(fourier.subfield_fourier(field, d).packed, want.packed)
        data, e, den = want.packed
        assert_same_triple(fourier_matrix(field, d).packed, (data[np.ix_(sub, sub)], e, den))


@pytest.mark.parametrize("pe,d", [((3, 2), 1), ((5, 2), 1), ((3, 3), 1), ((3, 4), 2),
                                  ((3, 4), 1)], ids=str)
def test_subfield_displacement_rejects_labels_outside_the_subfield(pe, d):
    field = make_field(*pe)
    sub = np.asarray(field.subfield_indices(d))
    outside = int(np.setdiff1d(np.arange(field.order), sub)[0])
    for alpha, beta in ((outside, 0), (0, outside), (sub, np.full(len(sub), outside))):
        with pytest.raises(NotInSubfield):
            heisenberg.displacement_monomial(field, alpha, beta, d=d)
        with pytest.raises(NotInSubfield):
            ref_subfield_displacement_arrays(field, d, alpha, beta)
    with pytest.raises(NotInSubfield):
        heisenberg.displacement(field, outside, outside, d=d)


# the subfield labels that the seed-12345 Heisenberg suite on GF(125) drew at
# d = 3 while its intertwining item sampled three labels per degree
SAMPLED_GF125_LABELS = (32, 53, 7)


def test_intertwining_fails_on_a_label_outside_the_old_sample(monkeypatch):
    # X_3^b one root step off at block position 0 for the last label b only:
    # F_3 X_3^b F_3+ != Z_3^b, and the target of Z_3^(-b) is off too
    field = make_field(5, 3)
    last = field.order - 1
    assert {last, field.neg_index(last)}.isdisjoint(SAMPLED_GF125_LABELS)
    original = heisenberg.displacement_monomial
    step = ring_for(field).order // field.p

    def wrong(field_, alpha, beta, phase_coeff=None, d=None):
        mono = original(field_, alpha, beta, phase_coeff, d)
        if d != 3:
            return mono
        hit = (np.asarray(field_.indices(alpha)) == 0) & (np.asarray(field_.indices(beta)) == last)
        return Monomial(mono.ring, mono.perm, mono.phase + np.where(
            hit[..., None] & (np.arange(mono.dim) == 0), step, 0))

    monkeypatch.setattr(heisenberg, "displacement_monomial", wrong)
    got = heisenberg.subfield_fourier_intertwining_check(field, 3)
    assert got == {"z_to_shift": False, "shift_to_z": False, "braiding": True}
    items = {item.name: item.status for item in heisenberg_suite(field).items}
    assert items["subfield_generator_fourier_intertwining"] == "fail"


def test_family_constructor_keeps_its_reduced_phases():
    # D for all q^2 labels of GF(125) (31.3 MB of int64 (q, q, q) arrays);
    # copying the reduced phases once more took the peak to 62.6 MB
    field = make_field(5, 3)
    idx = np.arange(field.order)
    heisenberg.displacement_monomial(field, idx, idx[:, None])  # warm the caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        family = heisenberg.displacement_monomial(field, idx, idx[:, None])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert family.perm.shape == family.phase.shape == (125, 125, 125)
    assert peak <= 48 * 2 ** 20, peak


def rootsum_shear_x_closed_form(field, xi):
    """The conjugated shear's matrix-element sum: entry (n, m) is p^-ell
    sum_k omega^(Tr(2^-1 xi k^2) + Tr(k n) - Tr(k m)), all q^3 terms in one
    root sum, as ``shear_x_closed_form`` evaluated it before it became the
    triple product F S_z F+."""
    ring, q, t = ring_for(field), field.order, field.tables()
    c = t.mul[field.two_inverse, field.element(xi).index]
    k = np.arange(q)
    tr_nk = t.trace[t.mul[k[:, None], k]]
    roots = ((t.trace[t.mul[c, t.mul[k, k]]] + tr_nk[:, None, :] - tr_nk) % field.p
             * (ring.order // field.p))
    slots = np.broadcast_to(np.arange(q * q).reshape(q, q, 1), roots.shape)
    return OperatorMatrix.from_packed(ring, ring.root_sum(
        ring.root_coeffs()[0], roots, slots, (q, q), 2 * field.ell))


@pytest.mark.parametrize("pe", [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2), (5, 3)], ids=str)
def test_shear_x_closed_form_matches_the_element_sum(pe):
    field = make_field(*pe)
    for xi in (0, 1, field.order - 1):
        got = sp.shear_x_closed_form(field, xi)
        want = rootsum_shear_x_closed_form(field, xi)
        assert_same_triple(got.packed, want.packed)
        assert got.equals(sp.generator_shear_x(field, xi))


def generic_elements(field):
    """The group's rows in the closed form's domain, filtered on field elements."""
    group = sp.enumerate_group(field)
    return group[[not (r.is_zero or t.is_zero or (s * t + 1).is_zero)
                  for r, s, t, _ in (entries(field, row) for row in group)]]


def suite_closed_form_draws(field, monkeypatch):
    """The element array symplectic_suite hands to closed_form_sweep."""
    seen = []
    original = sp.closed_form_sweep
    monkeypatch.setattr(sp, "closed_form_sweep",
                        lambda f, els: seen.append(els.copy()) or original(f, els))
    symplectic_suite(field)
    monkeypatch.undo()
    return seen[0]


def assert_same_closed_form(field, elements):
    got = sp.closed_form_sweep(field, elements)
    want = [ref_closed_form_check(field, row) for row in elements]
    assert [(r["proportional"], r["phase_is_one"]) for r in got] == \
        [(r["proportional"], r["phase_is_one"]) for r in want]
    # canonical scalars are unique, so equal phases have equal triples
    assert [None if r["phase"] is None else canonical([[r["phase"]]]) for r in got] == \
        [None if r["phase"] is None else canonical([[r["phase"]]]) for r in want]
    return got


@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2)], ids=str)
def test_closed_form_sweep_matches_per_element_check_on_every_element(pe):
    field = make_field(*pe)
    elements = generic_elements(field)
    got = assert_same_closed_form(field, elements)
    assert all(r["proportional"] and r["phase_is_one"] for r in got)
    for row in elements[::7]:
        assert canonical(sp.closed_form_matrix(field, row).rows) == \
            canonical(ref_closed_form_matrix(field, row).rows)
    assert sp.closed_form_elements_check(field, elements[-1]) == got[-1]


@pytest.mark.parametrize("pe", [(5, 2), (3, 3)], ids=str)
def test_closed_form_sweep_matches_on_the_suite_draws(pe, monkeypatch):
    field = make_field(*pe)
    elements = suite_closed_form_draws(field, monkeypatch)
    assert len(elements) == 50
    assert all(r["proportional"] for r in assert_same_closed_form(field, elements))


def test_closed_form_sweep_domain():
    field = make_field(3, 2)
    with pytest.raises(DomainRestriction):
        sp.closed_form_sweep(field, element_row(field, 1, 1, 0)[None])
    with pytest.raises(DomainRestriction):
        sp.closed_form_elements_check(field, sp.fourier_params(field))
    assert sp.closed_form_sweep(field, sp.enumerate_group(field)[:0]) == []


@pytest.mark.parametrize("pe", [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2), (3, 3)], ids=str)
def test_shear_x_closed_form_matches_entrywise_sums(pe):
    field = make_field(*pe)
    xis = range(field.order) if field.order <= 9 else (0, 1, field.order - 2)
    for xi in xis:
        got = sp.shear_x_closed_form(field, xi)
        assert canonical(got.rows) == canonical(ref_shear_x_closed_form(field, xi))
        assert got.equals(sp.generator_shear_x(field, xi))


def ref_generator_shear_x(field, xi):
    """The convolution built from q per-difference sum_of_roots scalars,
    gathered into rows at n - m and packed."""
    ring = ring_for(field)
    q = field.order
    phase = sp.generator_shear_z(field, xi).phase
    step = ring.order // ring.char
    g = [ring.sum_of_roots(
            (step * field.trace_index(field.mul_index(k, d)) + phase[k] for k in range(q)),
            2 * field.ell)
         for d in range(q)]
    sub = field.sub_index
    return OperatorMatrix(q, EXACT, ring, [[g[sub(n, m)] for m in range(q)] for n in range(q)])


SHEAR_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (13, 2), (7, 3)]


@pytest.mark.parametrize("pe", SHEAR_FIELDS, ids=str)
def test_generator_shear_x_matches_per_difference_sums(pe):
    field = make_field(*pe)
    q = field.order
    xis = range(q) if q <= 49 else (1, q // 2, q - 1)
    for xi in xis:
        got = sp.generator_shear_x(field, xi).packed
        want = ref_generator_shear_x(field, xi).packed
        assert got[0].dtype == want[0].dtype, xi
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], xi


SUBFIELD_CASES = [((p, ell), d) for p, ell in ((3, 2), (5, 2), (3, 3), (3, 4))
                  for d in range(1, ell + 1) if ell % d == 0]


@pytest.mark.parametrize("pe,d", SUBFIELD_CASES, ids=str)
def test_subfield_intertwining_matches_dense_loop(pe, d):
    # every subfield label: the dense loop makes 2 p^(2d) products
    field = make_field(*pe)
    got = heisenberg.subfield_fourier_intertwining_check(field, d)
    assert got == ref_intertwining(field, d)
    assert all(got.values())


def root_sum_intertwining(field, d):
    """The subfield intertwining check by root sums, as before the shared
    kernel: F_d M F_d+ per block of rows, p^-d sum_k zeta^(f[i, perm k] +
    phase k - f[j, k]) for a monomial M, compared with the target at (E, Q)
    = (0, 1), and the braiding by families of all label pairs at once."""
    sub = np.asarray(field.subfield_indices(d))
    s, ring = len(sub), ring_for(field)
    zero = np.zeros_like(sub)
    z = heisenberg.displacement_monomial(field, sub, zero, d=d)
    x = heisenberg.displacement_monomial(field, zero, sub, d=d)
    f = z.phase
    unit = ring.root_coeffs()

    def conjugates_to(mono, target):
        for blk in heisenberg.label_blocks(s * s, s * s):
            lab, i = np.divmod(np.arange(s * s)[blk], s)
            roots = (f[i[:, None, None], mono.perm[lab][:, None, :]]
                     + mono.phase[lab][:, None, :] - f)
            slots = np.broadcast_to(np.arange(len(i) * s).reshape(-1, s, 1), roots.shape)
            got = ring.root_sum(unit[0], roots, slots, (len(i), s), 2 * d)
            want = np.where((target.perm[lab] == i[:, None])[..., None],
                            unit[target.phase[lab]], 0)
            if got[1:] != (0, 1) or not np.array_equal(got[0], want):
                return False
        return True

    minus = heisenberg.displacement_monomial(field, zero, field.tables().neg[sub], d=d)
    zs, xs = z[:, None], x[None]
    return {"z_to_shift": conjugates_to(z, minus), "shift_to_z": conjugates_to(x, z),
            "braiding": bool((zs @ xs).matches((xs @ zs).scaled_by_root(z.phase)).all())}


def fourier_ok(field, grid, s):
    """fourier_maps_labels on the labels at the slice s, as
    verify.heisenberg_suite checked it inline before the shared kernel:
    F D(a, b) = D(b, -a) F on the root-exponent tables of both sides."""
    q, n, t = field.order, ring_for(field).order, field.tables()
    a_of, b_of = np.divmod(np.arange(q * q), q)
    f_exp = (n // field.p) * t.trace[t.mul] % n
    image = b_of * q + t.neg[a_of]
    inv = grid[image[s]].adjoint()
    lhs = f_exp[np.arange(q)[:, None], grid.perm[s][:, None, :]] + grid.phase[s][:, None, :]
    return not ((lhs + inv.phase[:, :, None] - f_exp[inv.perm]) % n).any()


KERNEL_SUBFIELD_CASES = [((p, ell), d) for p, ell in ((3, 2), (5, 2), (3, 3), (7, 2), (3, 4),
                                                      (5, 3))
                         for d in range(1, ell + 1) if ell % d == 0 and p ** d <= 81]


@pytest.mark.parametrize("pe,d", KERNEL_SUBFIELD_CASES, ids=str)
def test_intertwining_kernel_matches_root_sums(pe, d):
    # every subfield label; the root sums take p^(4d) terms per law
    field = make_field(*pe)
    got = heisenberg.subfield_fourier_intertwining_check(field, d)
    assert got == root_sum_intertwining(field, d)
    assert all(got.values())


@pytest.mark.parametrize("coeff", [None, 1])
@pytest.mark.parametrize("pe", LABEL_FIELDS, ids=lambda pe: f"GF({pe[0]}^{pe[1]})")
def test_fourier_kernel_matches_exponent_tables_on_the_grid(pe, coeff):
    # per label, against the old check run one label at a time, and per
    # block of the suite's budget
    field = make_field(*pe)
    q, n, t = field.order, ring_for(field).order, field.tables()
    grid = label_grid(field, coeff)
    a_of, b_of = np.divmod(np.arange(q * q), q)
    got = heisenberg.fourier_intertwines((n // field.p) * t.trace[t.mul] % n,
                                         grid, grid[b_of * q + t.neg[a_of]])
    assert got.shape == (q * q,)
    assert got.tolist() == [fourier_ok(field, grid, slice(l, l + 1)) for l in range(q * q)]
    assert ([bool(got[s].all()) for s in heisenberg.label_blocks(q * q, q * q)]
            == [fourier_ok(field, grid, s) for s in heisenberg.label_blocks(q * q, q * q)])
    assert bool(got.all()) is (coeff is None)


@pytest.mark.parametrize("pe,d", SUBFIELD_CASES, ids=str)
def test_subfield_power_relation_matches_dense_loop(pe, d, monkeypatch):
    field = make_field(*pe)
    sub = np.asarray(field.subfield_indices(d))
    pairs = [(int(a), int(b)) for a in sub for b in sub]
    if len(pairs) > 100:
        pairs = random.Random(d).sample(pairs, 100)
    for a, b in pairs:
        assert heisenberg.subfield_power_relation_check(field, d, a, b) == {
            "holds": ref_power_relation(field, d, a, b), "power": field.ell // d}
    # the whole block of labels in one call, as the suite makes it
    a, b = np.repeat(sub, len(sub)), np.tile(sub, len(sub))
    assert heisenberg.subfield_power_relation_check(field, d, a, b)["holds"]
    if d < field.ell:
        outside = np.setdiff1d(np.arange(field.order), sub)[:1]
        with pytest.raises(NotInSubfield):
            heisenberg.subfield_power_relation_check(field, d, a[:1], outside)
    # one wrong phase in one block column of every D, or two block columns
    # of every D sent to each other's rows: each half of the check sees one
    full = heisenberg.displacement_monomial(field, a, b)
    perm, phase = full.perm, full.phase
    swapped = perm.copy()
    swapped[:, sub[:2]] = perm[:, sub[1::-1]]
    original = heisenberg.displacement_monomial
    for wrong in ((perm, phase + (np.arange(field.order) == sub[-1])), (swapped, phase)):
        wrong = Monomial(full.ring, *wrong)
        monkeypatch.setattr(heisenberg, "displacement_monomial",
                            lambda f, x, y, c=None, d=None, wrong=wrong:
                            wrong if d is None else original(f, x, y, c, d))
        assert not heisenberg.subfield_power_relation_check(field, d, a, b)["holds"]


# -- element arrays against the object enumeration, sampler and synthesis ----

def ref_element(field, r, s, t, u=None):
    """(r, s, t, u) as field elements, u = r^-1 (1 + s t) when not given,
    with r u - s t = 1 checked by field arithmetic."""
    r, s, t = (field.element(x) for x in (r, s, t))
    u = r.inverse() * (s * t + 1) if u is None else field.element(u)
    assert r * u - s * t == field.one
    return r, s, t, u


def ref_enumerate_group(field):
    """The r != 0 chart by (r, s, t), then the r = 0 chart by (t, u), as
    field-element quadruples."""
    els = field.elements()
    out = [ref_element(field, r, s, t) for r in els[1:] for s in els for t in els]
    return out + [ref_element(field, field.zero, -t.inverse(), t, u)
                  for t in els[1:] for u in els]


def ref_sample_params(field, rng, count):
    out = []
    els = field.elements()
    while len(out) < count:
        r = rng.choice(els)
        if r.is_zero:
            t = rng.choice(els[1:])
            out.append(ref_element(field, field.zero, -t.inverse(), t, rng.choice(els)))
        else:
            out.append(ref_element(field, r, rng.choice(els), rng.choice(els)))
    return out


def ref_synthesize(field, params):
    """The generic chart from field-element arithmetic on the quadruple (r,
    s, t, u); any other element composed with the Fourier element, ((u, s),
    (t, r)) . ((0, 1), (-1, 0))."""
    r, s, t, u = params
    w = s * t + 1
    if r.is_zero or w.is_zero:
        shifted = ref_element(field, t, u, -r, -s)
        return ref_synthesize(field, shifted) @ fourier_matrix(field).adjoint()
    mono = (sp.generator_shear_z(field, s * r.inverse() * w)
            @ sp.generator_scaling(field, r * w.inverse()))
    return mono.right_mul_dense(sp.generator_shear_x(field, -(r * t * w.inverse())))


def rows_of(params):
    return [[x.index for x in g] for g in params]


def assert_same_synthesis(field, rows):
    for row in rows:
        got, want = synthesize(field, row).packed, ref_synthesize(field, entries(field, row)).packed
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], row


@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)], ids=str)
def test_enumerate_group_matches_object_enumeration(pe):
    field = make_field(*pe)
    assert sp.enumerate_group(field).tolist() == rows_of(ref_enumerate_group(field))


@pytest.mark.parametrize("seed", [0, 7, 12345 + 3, 2 ** 40])
@pytest.mark.parametrize("pe", [(3, 1), (7, 1), (3, 2), (5, 2)], ids=str)
def test_sample_group_matches_object_draws(pe, seed):
    field = make_field(*pe)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for count in (0, 1, 3, 8, 50):
        got = sp.sample_group(field, rng, count)
        assert got.shape == (count, 4) and got.dtype == np.int64
        assert got.tolist() == rows_of(ref_sample_params(field, ref_rng, count))
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2)], ids=str)
def test_synthesize_matches_recursive_synthesis_on_every_element(pe):
    field = make_field(*pe)
    assert_same_synthesis(field, sp.enumerate_group(field))


@pytest.mark.parametrize("pe", [(5, 2), (3, 3)], ids=str)
def test_synthesize_matches_recursive_synthesis_on_the_suite_draws(pe, monkeypatch):
    field = make_field(*pe)
    seen = []
    original = sp.synthesize
    monkeypatch.setattr(sp, "synthesize", lambda f, g: seen.append(g) or original(f, g))
    symplectic_suite(field)
    monkeypatch.undo()
    assert len(seen) > 10
    draws = suite_closed_form_draws(field, monkeypatch)
    assert_same_synthesis(field, seen + list(draws))


@pytest.mark.parametrize("plant", ["duplicate", "determinant"])
def test_group_order_count_fails_on_a_planted_row(plant, monkeypatch):
    field = make_field(3, 1)
    group = sp.enumerate_group(field)
    item = next(i for i in symplectic_suite(field).items if i.name == "group_order_count")
    assert (item.status, item.detail) == ("pass", "count=24")
    planted = group.copy()
    if plant == "duplicate":
        planted[5] = planted[4]
    else:  # u + 1 in the r = 1 chart: r u - s t = 2
        assert planted[5, 0] == 1
        planted[5, 3] = (planted[5, 3] + 1) % 3
    monkeypatch.setattr(sp, "enumerate_group", lambda f: planted)
    item = next(i for i in symplectic_suite(field).items if i.name == "group_order_count")
    assert (item.status, item.detail) == ("fail", "count=23")


def test_label_action_homomorphism_checks_the_determinant(monkeypatch):
    # 2 g acts on labels as g then doubling, so products still compose, but
    # the product of 2 g1 and g2 has r u - s t = 4 over GF(5)
    field = make_field(5, 1)
    original, calls = sp.sample_group, []

    def first_factor_doubled(f, rng, count):
        calls.append(count)
        rows = original(f, rng, count)
        return rows * 2 % 5 if len(calls) <= 12 and len(calls) % 2 else rows

    item = next(i for i in symplectic_suite(field).items if i.name == "label_action_homomorphism")
    assert item.status == "pass"
    monkeypatch.setattr(sp, "sample_group", first_factor_doubled)
    item = next(i for i in symplectic_suite(field).items if i.name == "label_action_homomorphism")
    assert item.status == "fail" and calls[:12] == [1] * 12


def test_action_sweep_blocks_agree(monkeypatch):
    field = make_field(3, 2)
    group = sp.enumerate_group(field)
    labels = [field.one, field.generator]
    want = sp.action_sweep(field, group, labels)
    monkeypatch.setattr(heisenberg, "LABEL_BLOCK_ENTRIES", 1)
    assert np.array_equal(sp.action_sweep(field, group[:40], labels), want[:40])
    monkeypatch.setattr(heisenberg, "LABEL_BLOCK_ENTRIES", 3000)
    assert np.array_equal(sp.action_sweep(field, group, labels), want)


# -- planted faults fail on both paths -------------------------------------------

def flip_b(monkeypatch, field):
    original = sp._closed_form_parts
    order = ring_for(field).order
    monkeypatch.setattr(sp, "_closed_form_parts",
                        lambda f, els: (lambda a, b: (a, -b % order))(*original(f, els)))


def flip_gauss_sign(monkeypatch, field):
    original = sp.gauss_sum
    monkeypatch.setattr(sp, "gauss_sum", lambda f, a: -original(f, a))


def plant_shear_rows(monkeypatch, wrong):
    """Plant wrong(row, f, xi) on the shears' convolution rows, which the
    synthesis, the sweeps and the shear laws read; the dense shears
    (generator_shear_x, the references' path) gather the planted rows."""
    row = sp._shear_row
    monkeypatch.setattr(sp, "_shear_row", lambda f, xi: wrong(row, f, xi))


def scaled_row(field, row, factor):
    """Every value of a row triple times an int, in normal form."""
    g, e, den = row
    ring = ring_for(field)
    out, e, den = ring.matmul((g[:, None], e, den), ring.pack(((ring.from_int(factor),),)))
    return out[:, 0], e, den


def scale_shear_base(monkeypatch, field):
    plant_shear_rows(monkeypatch, lambda row, f, xi: scaled_row(f, row(f, xi), 2))


def swap_shear_base(monkeypatch, field):
    plant_shear_rows(monkeypatch, lambda row, f, xi: row(f, 2 if xi == 1 else xi))


def shear_x_sign_flipped(monkeypatch, field):
    plant_shear_rows(monkeypatch, lambda row, f, xi: scaled_row(f, row(f, xi), -1))


def rotate_one_shear_value(monkeypatch, field):
    """g(1) times zeta: a shear row is even, g(-d) = g(d), and this fault is
    not, so a path that reads the row at m - n instead of n - m sees it."""
    def rotated(row, f, xi):
        g, e, den = row(f, xi)
        roots = (np.arange(f.order) == 1).astype(np.int64)
        return ring_for(f).times_roots(g[:, None], row_roots=roots)[:, 0], e, den
    plant_shear_rows(monkeypatch, rotated)


def shift_shear_row(monkeypatch, field):
    """g(d - 1) in place of g(d): S_x times the shift by 1, still unitary,
    but not even, so a wrong adjoint row sees it."""
    def shifted(row, f, xi):
        g, e, den = row(f, xi)
        t = f.tables()
        return g[t.add[np.arange(f.order), t.neg[1]]], e, den
    plant_shear_rows(monkeypatch, shifted)


CLOSED_FORM_FAULTS = {"b_sign": flip_b, "gauss_sign": flip_gauss_sign,
                      "swapped_base": swap_shear_base, "scaled_base": scale_shear_base}


@pytest.mark.parametrize("fault", sorted(CLOSED_FORM_FAULTS))
def test_closed_form_faults_fail_on_both_paths(fault, monkeypatch):
    field = make_field(3, 2)
    elements = generic_elements(field)
    CLOSED_FORM_FAULTS[fault](monkeypatch, field)
    got = assert_same_closed_form(field, elements)
    proportional = [r["proportional"] for r in got]
    if fault == "gauss_sign":  # still proportional, with phase -1 everywhere
        assert all(proportional) and not any(r["phase_is_one"] for r in got)
    elif fault == "scaled_base":  # proportional by 2, which is not a unit phase
        assert not any(proportional)
    else:
        assert not all(proportional)
    if fault == "swapped_base":  # exactly the elements built on that shear
        shear = sp.element_factors(field, elements).shear
        assert proportional == [int(x) != 1 for x in shear]


def test_closed_form_witness_names_the_first_failing_element(monkeypatch):
    field = make_field(3, 2)
    elements = suite_closed_form_draws(field, monkeypatch)
    swap_shear_base(monkeypatch, field)
    first = next(row for row in elements if not ref_closed_form_check(field, row)["proportional"])
    r, s, t, _ = entries(field, first)
    item = next(i for i in symplectic_suite(field).items
                if i.name == "closed_form_matches_synthesis")
    assert item.status == "fail"
    assert item.detail.endswith(f", witness=({r}, {s}, {t})")


# -- the shear rows against the dense shears they replaced ----------------------
#
# The references are the paths before the synthesis and the sweeps read each
# shear's convolution row: the cached dense shear times the monomial, and the
# (B, 2N, q, q) root-rotation codes of the dense shears, gathered at (n, m).

def dense_synthesize(field, row):
    """generator_shear_x(shear) @ M, times F+ outside the generic chart."""
    fac = sp.element_factors(field, np.asarray(row)[None])
    u = sp.generator_shear_x(field, int(fac.shear[0])) @ fac.monomial[0]
    return u @ fourier_matrix(field).adjoint() if fac.fourier[0] else u


def dense_rotation_codes(ring, datas):
    """codes[b, k, i, j]: an integer naming zeta^k datas[b][i, j], k < 2N."""
    deg, order = ring.degree, ring.order
    q = datas[0].shape[0]
    vals, idx = np.unique(np.stack(datas).reshape(-1, deg), axis=0, return_inverse=True)
    rot = ring.times_roots(np.broadcast_to(vals, (order,) + vals.shape),
                           row_roots=np.arange(order))
    _, rot_id = np.unique(rot.reshape(-1, deg), axis=0, return_inverse=True)
    codes = rot_id.reshape(order, len(vals))[:, idx.reshape(len(datas), q, q)]
    return np.concatenate([codes, codes]).transpose(1, 0, 2, 3).astype(np.int32)


def dense_closed_form_sweep(field, elements):
    """closed_form_sweep on the dense codes of the dense shears."""
    a, b = sp._closed_form_parts(field, elements)
    ring, q = ring_for(field), field.order
    fac = sp.element_factors(field, elements)
    bases, base_of = np.unique(fac.shear, return_inverse=True)
    mats = [sp.generator_shear_x(field, int(x)) for x in bases]
    perm, phase = fac.monomial.perm, fac.monomial.phase
    rot = (phase[:, None, :] - b) % ring.order
    codes = dense_rotation_codes(ring, [m.packed[0] for m in mats])[
        base_of[:, None, None], rot, np.arange(q)[:, None], perm[:, None, :]]
    constant = (codes == codes[:, :1, :1]).all(axis=(1, 2))
    out = []
    for k, x in enumerate(a.tolist()):
        scale = sp.gauss_sum(field, x) * ring.rational(1, q)
        data, e, den = mats[base_of[k]].packed
        entry = ring.unpack((data[:1, perm[k, :1]], e, den))[0][0]  # S_x(0, perm 0)
        phase = entry.times_root(int(rot[k, 0, 0])) * (scale.inverse() if scale else ring.zero)
        if not constant[k] or phase * phase.conj() != ring.one:
            phase = None
        out.append({"proportional": phase is not None, "phase": phase,
                    "phase_is_one": phase == ring.one})
    return out


def from_dense(a):
    """The monomial equal to a, or None when a is not monomial: the triple
    has E = 0, Q = 1 and one nonzero entry in each row and column, each a
    row of ``root_coeffs``."""
    data, e, q = a.packed
    live = data.any(axis=2)
    if e or q != 1 or not ((live.sum(axis=0) == 1).all() and (live.sum(axis=1) == 1).all()):
        return None
    perm = live.argmax(axis=0)
    vecs = data[perm, np.arange(a.dim)]
    match = (vecs[:, None, :] == a.ring.root_coeffs()[None]).all(axis=2)
    if not match.any(axis=1).all():
        return None
    return Monomial(a.ring, perm, match.argmax(axis=1))


def dense_fourier_conjugates(field, family):
    """The conjugates that two gathers of F replaced: W = F+ (D F) per label
    as a dense exact product, read back by ``from_dense``, with the identity
    where W is not monomial; and whether F is unitary."""
    f = sp.fourier_matrix(field)
    ring = ring_for(field)
    f_adj = f.adjoint()
    conj = [from_dense(f_adj @ (family[k] @ f)) for k in range(len(family.perm))]
    conj = [Monomial.identity(ring, field.order) if w is None else w for w in conj]
    return f.is_unitary(), Monomial(ring, [w.perm for w in conj], [w.phase for w in conj])


def drop_fourier_adjoint(monkeypatch, field):
    ident = OperatorMatrix.identity(ring_for(field), field.order)
    monkeypatch.setattr(sp, "fourier_matrix", lambda f: ident)


def adjoint_fourier(monkeypatch, field):
    wrong = fourier_matrix(field).adjoint()
    monkeypatch.setattr(sp, "fourier_matrix", lambda f: wrong)


def scale_fourier(monkeypatch, field):
    wrong = fourier_matrix(field).scaled(2)
    monkeypatch.setattr(sp, "fourier_matrix", lambda f: wrong)


def non_clifford_fourier(monkeypatch, field):
    # Delta F, Delta = diag(zeta^[m == 1]): unitary, but a one-point phase is
    # no quadratic phase, so F+ Delta+ X Delta F is not monomial
    ring = ring_for(field)
    delta = Monomial(ring, range(field.order), [int(m == 1) for m in range(field.order)])
    wrong = delta.left_mul_dense(fourier_matrix(field))
    monkeypatch.setattr(sp, "fourier_matrix", lambda f: wrong)


FOURIER_FAULTS = {"dropped_fourier_adjoint": drop_fourier_adjoint,
                  "wrong_fourier_adjoint": adjoint_fourier,
                  "wrong_fourier_not_unitary": scale_fourier,
                  "fourier_not_clifford": non_clifford_fourier}


def sweep_labels(field, labels):
    """The labels (a, 0), (0, b) and (a, b) of the action sweep, as two
    index arrays, for label values a and b in ``labels``."""
    els = np.array([field.element(x).index for x in labels], dtype=np.int64)
    n, zeros = len(els), np.zeros(len(els), dtype=np.int64)
    return (els, np.concatenate([els, zeros, np.repeat(els, n)]),
            np.concatenate([zeros, els, np.tile(els, n)]))


def dense_action_sweep(field, elements, labels):
    """action_sweep on the dense codes of the dense shears, with F+ D F as
    dense products, per block of elements: entry (j, c) of the law is
    codes[b, N + phi_Y c - phi_D j, pi_D j, pi_Y c]."""
    fac = sp.element_factors(field, elements)
    ring = ring_for(field)
    q, order, t = field.order, ring.order, field.tables()
    els, la, lb = sweep_labels(field, labels)
    n = len(els)
    lam = heisenberg.displacement_monomial(field, la, lb)
    f_unitary, conj = True, lam
    if fac.fourier.any():
        f_unitary, conj = dense_fourier_conjugates(field, lam)
    lams = Monomial(ring, np.stack([lam.perm, conj.perm]), np.stack([lam.phase, conj.phase]))
    bases, base_of = np.unique(fac.shear, return_inverse=True)
    mats = [sp.generator_shear_x(field, int(x)) for x in bases]
    unitary = np.array([m.is_unitary() for m in mats])[base_of] & (f_unitary | ~fac.fourier)
    codes = dense_rotation_codes(ring, [m.packed[0] for m in mats])
    d = heisenberg.displacement_monomial(
        field, *sp.label_images(field, elements.T[:, :, None], la, lb))
    m = fac.monomial[:, None]
    y = m @ lams[fac.fourier.astype(np.intp)] @ m.adjoint()
    by_m = base_of[:, None, None] * (2 * order * q * q) + (order + y.phase) * (q * q) + y.perm
    by_j = d.perm * q - d.phase * (q * q)
    law = np.empty(by_j.shape[:2], dtype=bool)
    step = max(1, REF_BLOCK_ENTRIES // (len(la) * q * q))
    for i in range(0, len(law), step):
        b = slice(i, i + step)
        lhs = codes.reshape(-1)[by_m[b, :, None, :] + by_j[b, :, :, None]]
        law[b] = (lhs == codes[base_of[b], 0][:, None]).all(axis=(2, 3))
    shift = t.trace[t.mul[els[:, None], els]] % field.p * (order // field.p)
    z, x = d[:, :n, None], d[:, None, n:2 * n]
    comm = (z @ x).matches((x @ z).scaled_by_root(shift)).all(axis=(1, 2))
    verdict = np.stack([law[:, :n].all(1), law[:, n:2 * n].all(1), law[:, 2 * n:].all(1),
                        comm], axis=1)
    return np.column_stack([unitary, verdict & unitary[:, None]])


def both_chart_elements(field):
    """The whole group at q <= 9; else drawn elements, the Fourier element
    (r = 0) and one with 1 + s t = 0, which lie outside the generic chart;
    at q = 169 the two elements (3, 5, 7) and (0, 12, 1, 5)."""
    if field.order <= 9:
        return sp.enumerate_group(field)
    if field.order == 169:
        return np.stack([element_row(field, 3, 5, 7), element_row(field, 0, 12, 1, 5)])
    return np.vstack([sp.sample_group(field, random.Random(field.order), 10),
                      sp.fourier_params(field),
                      element_row(field, 1, 1, field.neg_index(1))])


def assert_same_dicts(got, want):
    assert [(r["proportional"], r["phase_is_one"]) for r in got] == \
        [(r["proportional"], r["phase_is_one"]) for r in want]
    assert [None if r["phase"] is None else canonical([[r["phase"]]]) for r in got] == \
        [None if r["phase"] is None else canonical([[r["phase"]]]) for r in want]


ROW_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (13, 2)]


@pytest.mark.parametrize("pe", ROW_FIELDS, ids=str)
def test_shear_rows_match_the_dense_shear_paths(pe):
    field = make_field(*pe)
    elements = both_chart_elements(field)
    fac = sp.element_factors(field, elements)
    assert fac.fourier.any() and not fac.fourier.all()
    for row in elements:
        got, want = synthesize(field, row).packed, dense_synthesize(field, row).packed
        assert got[0].dtype == want[0].dtype, row
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], row
    generic = elements[sp.closed_form_domain(field, elements)]
    assert len(generic)
    assert_same_dicts(sp.closed_form_sweep(field, generic),
                      dense_closed_form_sweep(field, generic))
    labels = [field.generator ** k for k in range(field.ell)]
    got = sp.action_sweep(field, elements, labels)
    assert np.array_equal(got, dense_action_sweep(field, elements, labels))
    assert got.all()


# a global sign -1 keeps the conjugation action; the other faults break it
@pytest.mark.parametrize("fault,action_holds", [(swap_shear_base, False),
                                                (scale_shear_base, False),
                                                (shear_x_sign_flipped, True),
                                                (rotate_one_shear_value, False),
                                                (shift_shear_row, False)],
                         ids=["swapped_base", "scaled_base", "flipped_sign", "odd_row",
                              "shifted_row"])
def test_shear_rows_match_the_dense_shear_paths_under_planted_faults(fault, action_holds,
                                                                     monkeypatch):
    field = make_field(3, 2)
    elements = sp.enumerate_group(field)
    fault(monkeypatch, field)
    for row in elements[::7]:
        got, want = synthesize(field, row).packed, dense_synthesize(field, row).packed
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], row
    generic = elements[sp.closed_form_domain(field, elements)]
    got = sp.closed_form_sweep(field, generic)
    assert_same_dicts(got, dense_closed_form_sweep(field, generic))
    assert not all(r["proportional"] and r["phase_is_one"] for r in got)
    labels = [field.one, field.generator]
    got = sp.action_sweep(field, elements, labels)
    assert np.array_equal(got, dense_action_sweep(field, elements, labels))
    assert got.all() == action_holds


@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (13, 2)],
                         ids=str)
def test_fourier_conjugates_match_dense_products(pe):
    # every label value at q <= 9, the power basis above
    field = make_field(*pe)
    values = field.elements() if field.order <= 9 else [field.generator ** k
                                                        for k in range(field.ell)]
    _, la, lb = sweep_labels(field, values)
    got_unitary, got = sp._fourier_conjugates(field, la, lb)
    want_unitary, want = dense_fourier_conjugates(
        field, heisenberg.displacement_monomial(field, la, lb))
    assert got_unitary is want_unitary is True
    assert np.array_equal(got.perm, want.perm) and np.array_equal(got.phase, want.phase)
    t = field.tables()
    assert got.matches(heisenberg.displacement_monomial(field, t.neg[lb], la)).all()


@pytest.mark.parametrize("fault", sorted(FOURIER_FAULTS))
@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (3, 2), (3, 3)], ids=str)
def test_fourier_faults_give_the_dense_verdicts(pe, fault, monkeypatch):
    # the verdicts only: under a fault the two conjugate families may differ
    # (with F = 1 the dense W is D, the gathered one the identity)
    field = make_field(*pe)
    elements = sp.enumerate_group(field)
    labels = [field.generator ** k for k in range(field.ell)]
    FOURIER_FAULTS[fault](monkeypatch, field)
    got = sp.action_sweep(field, elements, labels)
    assert np.array_equal(got, dense_action_sweep(field, elements, labels))
    assert not got.all()


def drop_braiding_phase(monkeypatch, field):
    """The braiding shift read as 0: on the family path every root scaling
    of a monomial (the braiding's only one), on the dense path every
    omega power."""
    original = Monomial.scaled_by_root
    monkeypatch.setattr(Monomial, "scaled_by_root", lambda mono, k: original(mono, 0))
    monkeypatch.setattr(type(ring_for(field)), "omega", lambda ring, a: ring.one)


def shift_not_negated(monkeypatch, field):
    tables = field.tables()
    monkeypatch.setattr(field, "tables",
                        lambda: tables._replace(neg=np.arange(field.order)))
    monkeypatch.setattr(field, "neg_index", lambda a: a)


@pytest.mark.parametrize("fault,broken", [(drop_braiding_phase, "braiding"),
                                          (shift_not_negated, "z_to_shift")], ids=str)
@pytest.mark.parametrize("pe,d", [((3, 2), 1), ((3, 2), 2), ((5, 2), 2)], ids=str)
def test_intertwining_faults_fail_on_both_paths(fault, broken, pe, d, monkeypatch):
    field = make_field(*pe)
    fault(monkeypatch, field)
    got = heisenberg.subfield_fourier_intertwining_check(field, d)
    assert got == ref_intertwining(field, d) == root_sum_intertwining(field, d)
    assert got == {"z_to_shift": True, "shift_to_z": True, "braiding": True, broken: False}


def test_intertwining_reads_every_label_block(monkeypatch):
    # GF(25) runs its 25 labels in blocks of 13; only the last label, in the
    # second block, is not negated
    field = make_field(5, 2)
    last = field.subfield_indices(2)[-1]
    assert len(list(heisenberg.label_blocks(25, 25 * 25))) == 2
    tables = field.tables()
    neg = tables.neg.copy()
    neg[last] = last
    monkeypatch.setattr(field, "tables", lambda: tables._replace(neg=neg))
    monkeypatch.setattr(field, "neg_index", lambda a: int(neg[a]))
    got = heisenberg.subfield_fourier_intertwining_check(field, 2)
    assert got == ref_intertwining(field, 2) == root_sum_intertwining(field, 2)
    assert got == {"z_to_shift": False, "shift_to_z": True, "braiding": True}


@pytest.mark.parametrize("pe,d", [((3, 2), 1), ((3, 2), 2), ((5, 2), 1), ((3, 3), 3)], ids=str)
def test_intertwining_fails_on_a_wrong_subfield_trace(pe, d, monkeypatch):
    # one subfield trace off by one, in the table that subfield_traces and
    # subfield_trace both read: F_d, the subfield displacements and the
    # braiding phase all see it, and the kernel, the root sums and the dense
    # conjugations give one verdict
    field = make_field(*pe)
    at = field.subfield_indices(d)[1]
    wrong = field.subfield_traces(d).copy()
    wrong[at] = (wrong[at] + 1) % field.p
    monkeypatch.setitem(field._subfield_traces, d, wrong)
    got = heisenberg.subfield_fourier_intertwining_check(field, d)
    assert got == ref_intertwining(field, d) == root_sum_intertwining(field, d)
    assert not all(got.values())


def test_braiding_compares_the_permutations():
    # two transpositions that do not commute, all phases zero: the old
    # kernel and the family products agree
    ring = ring_for(make_field(3, 1))
    first = (np.array([1, 0, 2]), np.zeros(3, dtype=int))
    second = (np.array([0, 2, 1]), np.zeros(3, dtype=int))
    assert ref_braiding_holds(first, first, 0, 4).all()
    assert not ref_braiding_holds(first, second, 0, 4).all()
    a, b = Monomial(ring, *first), Monomial(ring, *second)
    assert (a @ a).matches((a @ a).scaled_by_root(0))
    assert not (a @ b).matches((b @ a).scaled_by_root(0))


# -- stacked marginals, shear laws and random operators --------------------------

STACK_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


def ref_transformed_marginals(field, row):
    """The per-label loop that transformed_marginals replaced: (alpha_ok,
    beta_ok, first failing (sum, label) or None).  It stops an alpha or a
    beta pass at its first failing label, as the loop did."""
    s_op = sp.synthesize(field, row)
    par = heisenberg.parity_monomial(field)
    f = fourier_matrix(field)
    ring = ring_for(field)
    q = field.order
    half = field.element(field.two_inverse)
    idx = np.arange(q)
    img_a, img_b = sp.label_images(field, row, idx[:, None], idx)  # [a, b]

    def column(mat, k):
        return mat.apply(point_mass(ring, q, k))

    failed = []
    for b in range(q):
        beta = field.element(b)
        lhs = label_sum(field, img_a[:, b], img_b[:, b])
        k = -(half * beta)
        target = outer(column(s_op, field.neg_index(k.index)), column(s_op, k.index))
        ok = lhs.equals(target)
        if ok and q <= 9:
            direct = conjugate(s_op, marginal_sum_alpha(field, beta))
            ref = conjugate(s_op, par.left_mul_dense(point_projector(field, k)))
            ok = direct.equals(lhs) and direct.equals(ref)
        if not ok:
            failed.append(("alpha_sums", b))
            break
    for a in range(q):
        alpha = field.element(a)
        lhs = label_sum(field, img_a[a], img_b[a])
        k = half * alpha
        if q <= 9:
            target = conjugate(s_op, par.right_mul_dense(conjugate(f, point_projector(field, k))))
            direct = conjugate(s_op, marginal_sum_beta(field, alpha))
            ok = direct.equals(lhs) and direct.equals(target)
        else:
            target = outer(s_op.apply(column(f, k.index)),
                           s_op.apply(column(f.adjoint(), k.index)))
            ok = lhs.equals(target)
        if not ok:
            failed.append(("beta_sums", a))
            break
    names = {name for name, _ in failed}
    return "alpha_sums" not in names, "beta_sums" not in names, (failed or [None])[0]


def marginal_elements(field):
    """The identity, an element of the generic chart and one composed with F."""
    return [element_row(field, 1, 0, 0, 1), element_row(field, 1, 1, 2 % field.order),
            element_row(field, 0, 1, field.neg_index(1), 0)]


def shift_one_image_label(monkeypatch, field):
    """The image of label (1, 0) moves to (u, t + 1), on both paths."""
    original, add = sp.label_images, field.tables().add

    def shifted(field_, row, alpha, beta):
        a, b = original(field_, row, alpha, beta)
        hit = (np.asarray(alpha) == 1) & (np.asarray(beta) == 0)
        return a, np.where(hit, add[b, 1], b)

    monkeypatch.setattr(sp, "label_images", shifted)


def swap_unitary(monkeypatch, field):
    """Every element gets the unitary of the element (1, 1, 1)."""
    original, other = sp.synthesize, element_row(field, 1, 1, 1)
    monkeypatch.setattr(sp, "synthesize", lambda f, g: original(f, other))


@pytest.mark.parametrize("fault", [None, shift_one_image_label, swap_unitary],
                         ids=["none", "shifted_image_label", "swapped_unitary"])
@pytest.mark.parametrize("pe", STACK_FIELDS, ids=str)
def test_transformed_marginals_match_per_label_loop(pe, fault, monkeypatch):
    field = make_field(*pe)
    if fault is not None:
        fault(monkeypatch, field)
    grid = certified_grid(field)
    for row in marginal_elements(field):
        got = sp.transformed_marginals(field, row, grid)
        want = ref_transformed_marginals(field, row)
        assert (got["alpha_sums"], got["beta_sums"], got["witness"]) == want
        if fault is None:
            assert got["witness"] is None
        elif fault is shift_one_image_label:  # both sums that hold the label fail
            assert want == (False, False, ("alpha_sums", 0))
        else:  # no element here is (1, 1, 1), so every one fails
            assert want[2] is not None


def test_transformed_marginals_blocks_agree(monkeypatch):
    field = make_field(5, 2)
    row, grid = marginal_elements(field)[1], certified_grid(field)
    want = sp.transformed_marginals(field, row, grid)
    monkeypatch.setattr(heisenberg, "LABEL_BLOCK_ENTRIES", 1)
    assert sp.transformed_marginals(field, row, grid) == want
    shift_one_image_label(monkeypatch, field)
    assert sp.transformed_marginals(field, row, grid)["witness"] == ("alpha_sums", 0)


def test_transformed_marginals_witness_in_the_suite(monkeypatch):
    field = make_field(3, 1)
    item = next(i for i in symplectic_suite(field).items if i.name == "transformed_marginals")
    assert (item.status, item.detail) == ("pass", "")
    shift_one_image_label(monkeypatch, field)
    item = next(i for i in symplectic_suite(field).items if i.name == "transformed_marginals")
    assert (item.status, item.detail) == ("fail", "witness=(1, 0, 0, 1):alpha_sums[beta=0]")


def ref_marginal_targets(field):
    """The dense right-hand sides the per-label marginal_projectors built:
    P E_(-b/2) for each beta b, then F E_(a/2) F^dagger P for each alpha a."""
    par = heisenberg.parity_monomial(field)
    f = fourier_matrix(field)
    half = field.element(field.two_inverse)
    els = field.elements()
    return ([par.left_mul_dense(point_projector(field, -(half * el))) for el in els]
            + [par.right_mul_dense(conjugate(f, point_projector(field, half * el)))
               for el in els])


@pytest.mark.parametrize("pe", STACK_FIELDS, ids=str)
def test_marginal_stacks_match_per_label_matrices(pe):
    field = make_field(*pe)
    ring, q = ring_for(field), field.order
    alpha, beta = heisenberg.marginal_labels(field)
    sums = label_sum_stack(field, alpha, beta)
    want_sums = ring.stack([label_sum(field, a, b).packed for a, b in zip(alpha, beta)])
    assert_same_triple(sums, want_sums)
    assert_same_triple(sums, ring.stack([m.packed for m in
                                         [marginal_sum_alpha(field, x) for x in range(q)]
                                         + [marginal_sum_beta(field, x) for x in range(q)]]))
    targets = stacked_marginal_targets(field, np.arange(2 * q))
    assert_same_triple(targets, ring.stack([m.packed for m in ref_marginal_targets(field)]))
    assert heisenberg.marginal_projectors(field, certified_grid(field)) == {
        "alpha_sums": True, "beta_sums": True}


def test_marginal_projectors_fail_on_a_perturbed_phase(monkeypatch):
    # D(0, 1) is wrong in one phase: in the per-label comparisons the alpha
    # sum at beta = 1 and the beta sum at alpha = 0 break; the line
    # relations hold only on a certified grid, and the certificate fails at
    # (0, 1, 1), so both sums fail
    field = make_field(3, 2)
    perturbed_arrays(monkeypatch, field)
    targets, q = ref_marginal_targets(field), field.order
    alpha_ok = [marginal_sum_alpha(field, x).equals(targets[x]) for x in range(q)]
    beta_ok = [marginal_sum_beta(field, x).equals(targets[q + x]) for x in range(q)]
    assert alpha_ok.index(False) == 1 and beta_ok.index(False) == 0
    assert certified_grid(field)[0] == (0, 1, 1)
    assert heisenberg.marginal_projectors(field, certified_grid(field)) == {
        "alpha_sums": False, "beta_sums": False}


def assert_same_triple(got, want):
    assert got[1:] == want[1:]
    assert np.array_equal(got[0], want[0])


def label_sum_stack(field, alpha, beta, weights=None):
    """The stack of the label sums p^-ell sum over l of w_bl D(alpha[b, l],
    beta[b, l]), one block per row b of (B, L) index arrays of labels: a
    (B * q, q) normal-form triple, the scatter the marginal checks ran
    before they read the phase constants.

    ``weights`` is a packed triple with one entry per label, in row-major
    order, or None for all ones.  Entry (perm_bl[m], m) of D(b, l) is
    zeta^phase_bl[m], so all B sums are one root sum of the weights into
    the B * q * q entries; the factor p^-ell = 1/q raises the scale
    exponent by 2 ell.  D goes through the module, so a fault planted there
    reaches it.
    """
    ring, q = ring_for(field), field.order
    family = heisenberg.displacement_monomial(field, alpha, beta)
    blocks, labels = family.perm.shape[:2]
    data, e, den = (ring.root_coeffs()[0], 0, 1) if weights is None else weights
    data = np.asarray(data).reshape(-1, 1, ring.degree)
    dest = (np.repeat(np.arange(blocks), labels)[:, None] * q + family.perm.reshape(-1, q)) * q
    return ring.root_sum(data, family.phase.reshape(-1, q), dest + np.arange(q), (blocks * q, q),
                         e + 2 * field.ell, den)


def outer_stack(ring, us, vs):
    """The stack of the rank-one operators |u_b><v_b|, for packed triples
    us and vs of shape (B, n, degree) whose row b is u_b and v_b: one
    batched exact product of (B, n, 1) by (B, 1, n), as a (B * n, n)
    normal-form triple."""
    (ud, ue, uq), (vd, ve, vq) = us, vs
    b, n, deg = ud.shape
    out, e, q = ring.matmul((ud[:, :, None], ue, uq), (ring.conj_coeffs(vd)[:, None], ve, vq))
    return out.reshape(b * n, vd.shape[1], deg), e, q


def ref_marginals_in_frame(field, alpha, beta, frame):
    """The frame kernel the line relations replaced: each block of alpha
    rows, then of beta rows, is one label_sum_stack compared with one
    outer_stack of columns of U, or of U F and U F+ (row b < q targets
    |U e_k><U e_-k| with k = b/2, row q + a targets |U F e_k><U F+ e_k| with
    k = a/2).  F goes through the module, so a fault planted there reaches
    it."""
    ring, q, t = ring_for(field), field.order, field.tables()
    f = heisenberg.fourier_matrix(field)
    one, fwd, back = ([OperatorMatrix.identity(ring, q), f, f.adjoint()] if frame is None
                      else [frame, frame @ f, frame @ f.adjoint()])
    k = t.mul[field.two_inverse, np.arange(q)]

    def columns(m, idx):
        data, e, den = m.packed
        return data.transpose(1, 0, 2)[idx], e, den

    ok = []
    for h, (left, at_left, right, at_right) in enumerate([(one, k, one, t.neg[k]),
                                                          (fwd, k, back, k)]):
        lines = slice(h * q, (h + 1) * q)
        for s in heisenberg.label_blocks(q, q * q * ring.order):
            ok.append(blocks_equal(ring, [label_sum_stack(field, alpha[lines][s], beta[lines][s]),
                                          outer_stack(ring, columns(left, at_left[s]),
                                                      columns(right, at_right[s]))], len(k[s])))
    return np.concatenate(ok)


def certified_grid(field):
    """The (certificate, C) pair of the label grid, built through the
    module, so that a fault planted there reaches it."""
    return heisenberg.grid_certificate(field)


def stacked_marginal_targets(field, rows):
    """The stacked right-hand sides marginal_projectors compared with before
    the frame kernel, at ascending rows of marginal_labels.  The alpha sum at
    beta = b equals |b/2><-b/2|, a matrix unit; the beta sum at alpha = a
    equals outer(F e_k, F e_k) with its columns permuted by the parity,
    k = a/2."""
    ring, q, t = ring_for(field), field.order, field.tables()
    deg = ring.degree
    rows = np.asarray(rows)
    k = t.mul[field.two_inverse, rows % q]
    alpha = rows < q
    units = np.zeros((alpha.sum(), q, q, deg), dtype=np.int8)
    units[np.arange(len(units)), k[alpha], t.neg[k[alpha]], 0] = 1
    f_data, e, den = fourier_matrix(field).packed
    cols = (f_data.transpose(1, 0, 2)[k[~alpha]], e, den)
    proj, e, den = outer_stack(ring, cols, cols)
    proj = proj.reshape(-1, q, q, deg)[:, :, t.neg]
    return ring.stack([(units.reshape(-1, q, deg), 0, 1), (proj.reshape(-1, q, deg), e, den)])


def ref_stacked_marginal_rows(field):
    """The per-row verdicts of the stacked marginal_projectors: the 2q plain
    sums against stacked_marginal_targets, block by block."""
    ring, q = ring_for(field), field.order
    alpha, beta = heisenberg.marginal_labels(field)
    rows = np.arange(2 * q)
    return np.concatenate([
        blocks_equal(ring, [label_sum_stack(field, alpha[s], beta[s]),
                            stacked_marginal_targets(field, rows[s])], len(rows[s]))
        for s in heisenberg.label_blocks(2 * q, q * q * ring.order)])


def ref_conjugated_marginal_rows(field, row):
    """The per-row verdicts of the stacked-conjugation transformed_marginals
    (its branch at q <= 9, run here at every q): each image-label sum must
    equal both the plain sum and its stacked right-hand side conjugated by
    S, each q x q block conjugated on its own."""
    s_op = sp.synthesize(field, row)
    ring, q = ring_for(field), field.order
    alpha, beta = heisenberg.marginal_labels(field)
    img_alpha, img_beta = sp.label_images(field, row, alpha, beta)
    rows = np.arange(2 * q)

    def conjugated(stack):
        data, e, den = stack
        return ring.stack([conjugate(s_op, OperatorMatrix.from_packed(ring, (x, e, den))).packed
                           for x in np.split(data, len(data) // q)])

    def block(s):
        return blocks_equal(ring, [label_sum_stack(field, img_alpha[s], img_beta[s]),
                                   conjugated(label_sum_stack(field, alpha[s], beta[s])),
                                   conjugated(stacked_marginal_targets(field, rows[s]))],
                            len(rows[s]))
    return np.concatenate([block(s) for s in heisenberg.label_blocks(2 * q, q * q * ring.order)])


def marginal_verdicts(field, ok):
    """The transformed_marginals dict read off per-row verdicts, with its
    first-failing-row witness."""
    q, bad = field.order, np.flatnonzero(~ok)
    return {"alpha_sums": bool(ok[:q].all()), "beta_sums": bool(ok[q:].all()),
            "witness": (("alpha_sums", "beta_sums")[bad[0] // q], int(bad[0] % q))
            if len(bad) else None}


def one_entry_blocks(monkeypatch, field):
    """Every label-grid sum and check runs in one-row blocks."""
    monkeypatch.setattr(heisenberg, "LABEL_BLOCK_ENTRIES", 1)


def frame_rows(field, row):
    """The frame kernel's per-row verdicts for the element at ``row``."""
    labels = sp.label_images(field, row, *heisenberg.marginal_labels(field))
    return heisenberg.marginals_in_frame(field, *labels, sp.synthesize(field, row),
                                         certified_grid(field))


@pytest.mark.parametrize("fault", [None, shift_one_image_label, swap_unitary, perturbed_arrays,
                                   one_entry_blocks],
                         ids=["none", "shifted_image_label", "swapped_unitary",
                              "perturbed_arrays", "one_entry_blocks"])
@pytest.mark.parametrize("pe", STACK_FIELDS, ids=str)
def test_frame_kernel_matches_the_stacked_paths(pe, fault, monkeypatch):
    # the stacked conjugation also compared each transported sum with S (plain
    # sum) S+, so a row holds there exactly when it holds in the frame and its
    # plain identity holds; where every plain identity holds the verdicts,
    # witnesses included, are the same.  Under perturbed_arrays the stacked
    # paths fail the lines through (0, 1); the line relations hold only on a
    # certified grid, so they fail every line, and the first line is the
    # dict's witness (the suite reports the certificate's instead)
    field = make_field(*pe)
    q = field.order
    if fault is not None:
        fault(monkeypatch, field)
    grid = certified_grid(field)
    plain = ref_stacked_marginal_rows(field)
    new_plain = heisenberg.marginals_in_frame(field, *heisenberg.marginal_labels(field), None,
                                              grid)
    assert plain.all() == (fault is not perturbed_arrays)
    if fault is perturbed_arrays:
        assert grid[0] == (0, 1, 1) and not new_plain.any()
        assert np.flatnonzero(~plain).tolist() == [1, q]
        assert heisenberg.marginal_projectors(field, grid) == {
            "alpha_sums": False, "beta_sums": False}
        for row in marginal_elements(field):
            assert not frame_rows(field, row).any()
            assert not ref_conjugated_marginal_rows(field, row).all()
            assert sp.transformed_marginals(field, row, grid) == {
                "alpha_sums": False, "beta_sums": False, "witness": ("alpha_sums", 0)}
        return
    assert np.array_equal(new_plain, plain)
    assert heisenberg.marginal_projectors(field, grid) == {
        "alpha_sums": True, "beta_sums": True}
    for row in marginal_elements(field):
        old, new = ref_conjugated_marginal_rows(field, row), frame_rows(field, row)
        assert np.array_equal(old, new & plain)
        got = sp.transformed_marginals(field, row, grid)
        assert got == marginal_verdicts(field, new)
        if plain.all():
            assert got == marginal_verdicts(field, old)
        assert new.all() == (fault in (None, one_entry_blocks))


def swap_fourier_columns(monkeypatch, field):
    """The targets take the columns of U F+ where those of U F belong, and the
    reverse: the kernel reads F+ for F."""
    monkeypatch.setattr(heisenberg, "fourier_matrix", lambda f: fourier_matrix(f).adjoint())


@pytest.mark.parametrize("pe", STACK_FIELDS, ids=str)
def test_swapped_fourier_columns_fail_every_beta_sum_off_alpha_zero(pe, monkeypatch):
    # F+ e_k = F e_-k, so the beta sum at alpha = a holds only where k = -k,
    # at a = 0; the alpha sums never read F; the stacked paths do not see it
    field = make_field(*pe)
    q = field.order
    swap_fourier_columns(monkeypatch, field)
    want = np.ones(2 * q, dtype=bool)
    want[q + 1:] = False
    grid = certified_grid(field)
    assert np.array_equal(
        heisenberg.marginals_in_frame(field, *heisenberg.marginal_labels(field), None, grid),
        want)
    assert heisenberg.marginal_projectors(field, grid)["beta_sums"] is False
    assert ref_stacked_marginal_rows(field).all()
    for row in marginal_elements(field):
        assert np.array_equal(frame_rows(field, row), want)
        assert sp.transformed_marginals(field, row, grid) == {
            "alpha_sums": True, "beta_sums": False, "witness": ("beta_sums", 1)}
        assert ref_conjugated_marginal_rows(field, row).all()


def test_swapped_fourier_columns_witness_in_the_suites(monkeypatch):
    field = make_field(3, 1)
    swap_fourier_columns(monkeypatch, field)
    item = next(i for i in symplectic_suite(field).items if i.name == "transformed_marginals")
    assert (item.status, item.detail) == ("fail", "witness=(1, 0, 0, 1):beta_sums[alpha=1]")
    status = {i.name: i.status for i in heisenberg_suite(field).items}
    assert (status["marginal_alpha_sums"], status["marginal_beta_sums"]) == ("pass", "fail")


def ref_shear_laws(field, xs, ys, units):
    """The per-pair products and per-shear unitarity checks the batched
    product replaced, one verdict each."""
    def shear(x):
        return sp.generator_shear_x(field, int(x))
    additive = [(shear(x) @ shear(y)).equals(shear(field.add_index(x, y)))
                for x, y in zip(xs, ys)]
    return np.array(additive, dtype=bool), np.array([shear(u).is_unitary() for u in units],
                                                    dtype=bool)


def assert_same_laws(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == bool and np.array_equal(g, w)


@pytest.mark.parametrize("fault", [None, swap_shear_base, scale_shear_base,
                                   rotate_one_shear_value, shift_shear_row],
                         ids=["none", "swapped_base", "scaled_base", "odd_row",
                              "shifted_row"])
@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2)], ids=str)
def test_shear_grid_laws_match_per_pair_products(pe, fault, monkeypatch):
    field = make_field(*pe)
    if fault is not None:
        fault(monkeypatch, field)
    q = field.order
    xs, ys = np.divmod(np.arange(q * q), q)
    got = sp.shear_grid_laws(field, xs, ys, range(q))
    assert_same_laws(got, ref_shear_laws(field, xs, ys, range(q)))
    assert tuple(bool(law.all()) for law in got) == {
        None: (True, True), swap_shear_base: (False, True), scale_shear_base: (False, False),
        rotate_one_shear_value: (False, False), shift_shear_row: (False, True)}[fault]


@pytest.mark.parametrize("pe", [(5, 2), (3, 3)], ids=str)
def test_shear_grid_laws_on_drawn_pairs(pe, monkeypatch):
    """Any pair arrays: drawn pairs and shears as in the suite, then single
    pairs under a swapped base S_x(1) -> S_x(2), where (1, 1) alone fails."""
    field = make_field(*pe)
    q, rng = field.order, random.Random(pe[0])
    xs, ys = (np.array([rng.randrange(q) for _ in range(6)]) for _ in range(2))
    units = [0, 1, rng.randrange(q)]
    assert_same_laws(sp.shear_grid_laws(field, xs, ys, units), ([True] * 6, [True] * 3))
    swap_shear_base(monkeypatch, field)
    for x, y, additive in [(0, 2, True), (1, 0, True), (1, 1, False)]:
        got = sp.shear_grid_laws(field, [x], [y], [x])
        assert_same_laws(got, ref_shear_laws(field, [x], [y], [x]))
        assert_same_laws(got, ([additive], [True]))
    # one product per block at this size: the failing pair comes last
    got = sp.shear_grid_laws(field, [*xs, 1], [*ys, 1], units)
    assert_same_laws(got, ref_shear_laws(field, [*xs, 1], [*ys, 1], units))
    assert not got[0][-1] and got[1].all()


def ref_random_operator(field, rng, count):
    """The per-scalar builder the packed one replaced, on the same draws: the
    canonical scalars of the suites' random matrices and states, in draw
    order.  The bytes are mapped one by one: coefficients, each byte from
    250 up redrawn in order, then the exponent and denominator picks."""
    ring = ring_for(field)
    raw = list(rng.randbytes(count * (ring.degree + 2)))
    vecs, picks = raw[:count * ring.degree], raw[count * ring.degree:]
    redraw = [i for i, x in enumerate(vecs) if x >= 250]
    while redraw:
        for i, x in zip(redraw, rng.randbytes(len(redraw))):
            vecs[i] = x
        redraw = [i for i in redraw if vecs[i] >= 250]
    vecs = [x % 5 - 2 for x in vecs]
    exps = [(0, 0, 1, 2)[x % 4] for x in picks[:count]]
    denoms = [(1, 1, 2, 3)[x % 4] for x in picks[count:]]
    out = []
    for i, (e, den) in enumerate(zip(exps, denoms)):
        vec = vecs[i * ring.degree:(i + 1) * ring.degree]
        if not any(vec):
            vec[0] = 1
        out.append(ring.scalar(vec, e, den))
    return out


@pytest.mark.parametrize("pe", STACK_FIELDS, ids=str)
def test_random_operators_match_per_scalar_builder(pe):
    field = make_field(*pe)
    ring, q = ring_for(field), field.order
    for seed in (1, 7):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        mat = _random_matrix(field, rng)
        entries = ref_random_operator(field, ref_rng, q * q)
        want = OperatorMatrix(q, EXACT, ring, [entries[i * q:(i + 1) * q] for i in range(q)])
        assert_same_triple(mat.packed, want.packed)
        state = _random_state(field, rng)
        want = state_of(ring, ref_random_operator(field, ref_rng, q))
        assert_same_triple(state.packed, want.packed)
        assert rng.random() == ref_rng.random()  # the same draws, in the same order


# -- field-table gathers against the per-index builders they replaced ----------
#
# The references are the earlier builders: one scalar table call per index,
# monomials as tuples with per-index products, dense operators from
# {(n, m): scalar} entries of zeta^k p^(-e/2) scalars, and the packing of
# distinct scalars by their own sqrt(p)/lcm loop.  Planted faults in the
# index arrays reach both paths and must break a law on both.

TABLE_FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (3, 4)]


class RefMonomial:
    """The tuple Monomial: M(perm[m], m) = zeta^phase[m], products per index."""

    def __init__(self, ring, perm, phase):
        self.ring, self.perm = ring, tuple(perm)
        self.phase = tuple(k % ring.order for k in phase)

    def __matmul__(self, other):
        return RefMonomial(self.ring, [self.perm[k] for k in other.perm],
                           [other.phase[m] + self.phase[k] for m, k in enumerate(other.perm)])

    def __eq__(self, other):
        return (self.perm, self.phase) == (other.perm, other.phase)

    def adjoint(self):
        inv = [0] * len(self.perm)
        for m, k in enumerate(self.perm):
            inv[k] = m
        return RefMonomial(self.ring, inv, [-self.phase[m] for m in inv])

    def tensor(self, other):
        da = len(self.perm)
        pairs = [(a, b) for b in range(len(other.perm)) for a in range(da)]
        return RefMonomial(self.ring, [self.perm[a] + da * other.perm[b] for a, b in pairs],
                           [self.phase[a] + other.phase[b] for a, b in pairs])

    def __pow__(self, n):
        out = RefMonomial(self.ring, range(len(self.perm)), [0] * len(self.perm))
        for _ in range(n):
            out = self @ out
        return out

    def trace(self):
        return self.ring.sum_of_roots(k for m, k in enumerate(self.phase) if self.perm[m] == m)

    def matches(self, mono):
        return (mono.ring is self.ring and mono.perm.dtype == np.int64
                and not (mono.perm.flags.writeable or mono.phase.flags.writeable)
                and (mono.perm.tolist(), mono.phase.tolist()) == (list(self.perm), list(self.phase)))


def table_labels(field):
    q = field.order
    return sorted({0, 1, 2 % q, q - 1, *range(0, q, max(1, q // 5))})


def ref_generators(field, a, b):
    """The per-index monomial builders at labels a and b (b the scaling and
    shear parameter), by name."""
    ring, els, p = ring_for(field), range(field.order), field.p
    tr, mul, add, c = field.trace_index, field.mul_index, field.add_index, field.two_inverse

    def perm(values):
        return RefMonomial(ring, values, [0] * len(values))

    def omega(exps):
        return RefMonomial(ring, range(len(exps)), [omega_exponent(ring, x) for x in exps])

    base = tr(mul(c, mul(a, b)))
    gens = {"z": omega([tr(mul(a, m)) for m in els]), "x": perm([add(m, b) for m in els]),
            "parity": perm([field.neg_index(m) for m in els]),
            "frobenius": perm([field.frobenius_index(m) for m in els]),
            "displacement": RefMonomial(ring, [add(m, b) for m in els],
                                        [omega_exponent(ring, base + tr(mul(a, m))) for m in els]),
            "shear_z": omega([tr(mul(mul(c, b), mul(m, m))) for m in els]),
            "component": RefMonomial(ring, [(m + b) % p for m in range(p)],
                                     [omega_exponent(ring, c * a * b + a * m) for m in range(p)])}
    if b:
        gens["scaling"] = perm([mul(b, m) for m in els])
    return gens


def new_generators(field, a, b):
    gens = {"z": heisenberg.z_monomial(field, a), "x": heisenberg.x_monomial(field, b),
            "parity": heisenberg.parity_monomial(field),
            "frobenius": frobenius.frobenius_monomial(field),
            "displacement": heisenberg.displacement_monomial(field, a, b),
            "shear_z": sp.generator_shear_z(field, b),
            "component": heisenberg.component_displacement_monomial(field, a, b)}
    if b:
        gens["scaling"] = sp.generator_scaling(field, b)
    return gens


def ref_gauss_sum(field, a):
    ring, tr, mul = ring_for(field), field.trace_index, field.mul_index
    return ring.sum_of_roots(omega_exponent(ring, tr(mul(a, mul(k, k))))
                             for k in range(field.order))


@pytest.mark.parametrize("pe", TABLE_FIELDS, ids=str)
def test_table_gathers_match_per_index_builders(pe):
    field = make_field(*pe)
    for a in table_labels(field):
        b = field.neg_index(a) if a % 2 else (a + 1) % field.order
        ref, new = ref_generators(field, a, b), new_generators(field, a, b)
        assert ref.keys() == new.keys()
        for name, mono in new.items():
            assert ref[name].matches(mono), name
        assert sp.gauss_sum(field, a) == ref_gauss_sum(field, a)


@pytest.mark.parametrize("pe", TABLE_FIELDS, ids=str)
def test_monomial_products_match_tuple_products(pe):
    field = make_field(*pe)
    ring, q = ring_for(field), field.order
    rng = random.Random(q)
    monos = [m for name, m in new_generators(field, 1, q - 1).items() if name != "component"]
    for _ in range(3):
        perm = list(range(q))
        rng.shuffle(perm)
        monos.append(Monomial(ring, perm, [rng.randrange(-ring.order, ring.order) for _ in perm]))
    refs = [RefMonomial(ring, m.perm.tolist(), m.phase.tolist()) for m in monos]
    for mono, ref in zip(monos, refs):
        assert ref.adjoint().matches(mono.adjoint())
        assert (ref ** 3).matches(mono ** 3) and (ref ** 0).matches(mono ** 0)
        assert ref.adjoint().matches(mono ** -1)
        assert ref.trace() == mono.trace() == mono.to_matrix().trace()
        assert (mono == Monomial(ring, ref.perm, ref.phase)
                and hash(mono) == hash(Monomial(ring, ref.perm, ref.phase)))
        for other, other_ref in zip(monos[::2], refs[::2]):
            assert (ref @ other_ref).matches(mono @ other)
    small = [heisenberg.component_displacement_monomial(field, a, b) for a, b in ((1, 2), (2, 0))]
    small_ref = [RefMonomial(ring, m.perm.tolist(), m.phase.tolist()) for m in small]
    assert small_ref[0].tensor(small_ref[1]).matches(small[0].tensor(small[1]))


# -- monomial families against per-member products and the old array kernels --
#
# The references are the kernels the families replaced: the (perm, phase)
# gathers of the displacements, the take_along_axis composition of the
# generator laws and the braiding check of the subfield and symplectic
# sweeps, kept here as they were.

def ref_displacement_arrays(field, alpha, beta, phase_coeff=None):
    """(perm, phase) of D(alpha, beta) for index arrays (or ints), perm of
    shape(beta) + (q,) and phase of the broadcast shape."""
    t = field.tables()
    c = field.two_inverse if phase_coeff is None else phase_coeff % field.p
    base = t.trace[t.mul[c, t.mul[alpha, beta]]]
    phase = ((t.trace[t.mul[alpha]] + base[..., None]) % field.p
             * (ring_for(field).order // field.p))
    return t.add[beta], phase


def ref_composed(a, b, order):
    """(perm, phase) of the products A_i B_i of two (B, q) stacks."""
    (perm_a, phase_a), (perm_b, phase_b) = a, b
    return (np.take_along_axis(perm_a, perm_b, axis=1),
            (phase_b + np.take_along_axis(phase_a, perm_b, axis=1)) % order)


def ref_braiding_holds(first, second, shift, order):
    """Entrywise truth of M1 M2 = zeta^shift M2 M1 for (perm, phase) pairs
    whose leading axes broadcast."""
    (p1, f1), (p2, f2) = first, second
    p12, p21 = np.take_along_axis(p1, p2, -1), np.take_along_axis(p2, p1, -1)
    f12, f21 = np.take_along_axis(f1, p2, -1), np.take_along_axis(f2, p1, -1)
    return (p12 == p21) & ((f2 + f12 - f1 - f21 - shift) % order == 0)


FAMILY_FIELDS = [(3, 2), (5, 2), (3, 3)]


def random_family(ring, shape, dim, rng, dtype):
    """A family of random monomials with leading shape ``shape``, stored
    as ``dtype``; the phases run over (-N, N) before reduction."""
    count = math.prod(shape)
    perm = np.array([rng.sample(range(dim), dim) for _ in range(count)])
    phase = np.array([[rng.randrange(-ring.order, ring.order) for _ in range(dim)]
                      for _ in range(count)])
    return Monomial(ring, perm.reshape(shape + (dim,)).astype(dtype),
                    phase.reshape(shape + (dim,)).astype(dtype))


def as_ref(mono):
    return RefMonomial(mono.ring, mono.perm.tolist(), mono.phase.tolist())


@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=lambda t: t.__name__)
@pytest.mark.parametrize("pe", FAMILY_FIELDS, ids=str)
def test_family_algebra_matches_per_member_ops(pe, dtype):
    ring, q = ring_for(make_field(*pe)), make_field(*pe).order
    rng = random.Random(q * 10 + (dtype is np.int32))
    a, b = random_family(ring, (3, 1), q, rng, dtype), random_family(ring, (1, 4), q, rng, dtype)
    k = np.array([[rng.randrange(-ring.order, ring.order) for _ in range(4)] for _ in range(3)])
    prod = a @ b
    assert prod.perm.shape == (3, 4, q) and prod.dim == q
    scaled = prod.scaled_by_root(k)
    for i in range(3):
        assert a[i, 0].adjoint() == a.adjoint()[i, 0]
        assert as_ref(a[i, 0]).adjoint() == as_ref(a.adjoint()[i, 0])
        for n in (0, 1, 3, -2):
            assert (a ** n)[i, 0] == a[i, 0] ** n
        assert as_ref(a[i, 0]) ** 3 == as_ref((a ** 3)[i, 0])
        for j in range(4):
            one = a[i, 0] @ b[0, j]
            assert prod[i, j] == one and as_ref(prod[i, j]) == as_ref(a[i, 0]) @ as_ref(b[0, j])
            assert scaled[i, j] == one.scaled_by_root(int(k[i, j]))
            assert np.array_equal(scaled[i, j].phase, (one.phase + k[i, j]) % ring.order)
    assert prod.scaled_by_root(5) == Monomial(ring, prod.perm, prod.phase + 5)
    # the stacked products of the old kernel, on the broadcast stacks
    stacks = [(np.broadcast_to(m.perm, (3, 4, q)).reshape(12, q),
               np.broadcast_to(m.phase, (3, 4, q)).reshape(12, q)) for m in (a, b)]
    want = ref_composed(*stacks, ring.order)
    assert np.array_equal(prod.perm.reshape(12, q), want[0])
    assert np.array_equal(prod.phase.reshape(12, q), want[1])
    # members picked by index arrays, repeats included
    rows = np.array([2, 0, 2])
    picked = a[rows, 0]
    assert all(picked[n] == a[r, 0] for n, r in enumerate(rows.tolist()))
    # the storage dtype is kept through every operation
    for mono in (prod, a.adjoint(), a ** 3, a ** -1, picked, scaled):
        assert mono.perm.dtype == mono.phase.dtype == dtype
        assert not (mono.perm.flags.writeable or mono.phase.flags.writeable)
    # matches is member by member, == and hash are the whole value
    assert np.array_equal(prod.matches(prod), np.ones((3, 4), dtype=bool))
    assert (prod.matches(prod[0, 0]) == [[prod[i, j] == prod[0, 0] for j in range(4)]
                                         for i in range(3)]).all()
    wide = Monomial(ring, prod.perm.astype(np.int64), prod.phase.astype(np.int64))
    narrow = Monomial(ring, prod.perm.astype(np.int32), prod.phase.astype(np.int32))
    assert wide == narrow and hash(wide) == hash(narrow)
    assert wide[1, 2] == narrow[1, 2] and hash(wide[1, 2]) == hash(narrow[1, 2])
    assert wide != wide[1]  # another shape is another value


@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=lambda t: t.__name__)
def test_matches_fails_exactly_on_a_planted_member(dtype):
    field = make_field(3, 3)
    ring, q = ring_for(field), field.order
    grid = label_grid(field)
    grid = Monomial(ring, grid.perm.astype(dtype), grid.phase.astype(dtype))
    for member, fault in ((5, "perm"), (q * q - 1, "phase")):
        perm, phase = grid.perm.copy(), grid.phase.copy()
        if fault == "perm":  # a swapped pair of one member's rows
            perm[member, [0, 1]] = perm[member, [1, 0]]
        else:  # one phase off by one root step
            phase[member, 3] += 1
        got = grid.matches(Monomial(ring, perm, phase))
        assert got.shape == (q * q,) and np.flatnonzero(~got).tolist() == [member]
        assert (as_ref(grid[member]) == RefMonomial(ring, perm[member], phase[member])) is False


@pytest.mark.parametrize("coeff", [None, 1])
@pytest.mark.parametrize("pe", FAMILY_FIELDS + [(5, 1), (7, 1)], ids=str)
def test_displacement_families_match_old_arrays(pe, coeff):
    field = make_field(*pe)
    q = field.order
    idx = np.arange(q)
    family = heisenberg.displacement_monomial(field, idx, idx[:, None], coeff)
    perm, phase = ref_displacement_arrays(field, idx, idx[:, None], coeff)
    assert family.perm.shape == family.phase.shape == (q, q, q)
    assert np.array_equal(family.perm, np.broadcast_to(perm, (q, q, q)))
    assert np.array_equal(family.phase, phase)
    assert family.perm.dtype == family.phase.dtype == np.int64
    grid = label_grid(field, coeff)
    assert grid.perm.dtype == grid.phase.dtype == np.int32
    a, b = np.divmod(np.arange(q * q), q)
    assert grid == Monomial(grid.ring, *ref_displacement_arrays(field, a, b, coeff))
    assert all(grid[a_ * q + b_] == heisenberg.displacement_monomial(field, a_, b_, coeff)
               for a_, b_ in ((0, 0), (1, q - 1), (q - 1, 2 % q)))


@pytest.mark.parametrize("pe", FAMILY_FIELDS, ids=str)
def test_braiding_families_match_old_kernel(pe):
    # Z^a X^b = zeta^shift X^b Z^a over all label pairs, with the true shift
    # and with one shift off by one step
    field = make_field(*pe)
    ring, q, t = ring_for(field), field.order, field.tables()
    idx = np.arange(q)
    z = heisenberg.displacement_monomial(field, idx, 0)
    x = heisenberg.displacement_monomial(field, 0, idx)
    true = t.trace[t.mul[idx[:, None], idx]] * (ring.order // field.p)
    for shift in (true, true + (np.arange(q * q).reshape(q, q) == q + 2)):
        got = (z[:, None] @ x[None]).matches((x[None] @ z[:, None]).scaled_by_root(shift))
        want = ref_braiding_holds((z.perm[:, None], z.phase[:, None]),
                                  (x.perm[None], x.phase[None]),
                                  shift[:, :, None], ring.order).all(axis=-1)
        assert np.array_equal(got, want)
        assert np.array_equal(~got, shift != true)


def ref_from_sparse(ring, dim, entries):
    rows = [[ring.zero] * dim for _ in range(dim)]
    for (n, m), x in entries.items():
        rows[n][m] = x
    return OperatorMatrix(dim, EXACT, ring, rows)


def ref_root_scaled(ring, k, e):
    return ring.scalar(ring.root(k).coeffs, e, 1)


def ref_dense_builders(field, k, d, a, b):
    """The from_sparse and root_scaled builders, by name: the point projector
    at k, phi_k, the component character at k mod p, and the subfield
    Fourier matrix of GF(p^d), embedded and on its block, and the subfield
    displacement at subfield labels (a, b) on the block."""
    ring, q, p, els = ring_for(field), field.order, field.p, range(field.order)
    tr, mul, add, sub = field.trace_index, field.mul_index, field.add_index, field.subfield_indices(d)

    def sub_tr(x):
        return field.subfield_trace(x, d)

    phis = [[ref_root_scaled(ring, omega_exponent(ring, -tr(mul(n, m))), field.ell) for m in els]
            for n in els]
    block = {(n, m): ref_root_scaled(ring, omega_exponent(ring, sub_tr(mul(n, m))), d)
             for n in sub for m in sub}
    base = sub_tr(mul(field.two_inverse, mul(a, b)))
    pos = {x: k for k, x in enumerate(sub)}
    return {
        "point_projector": ref_from_sparse(ring, q, {(k, k): ring.one}),
        "subspace_projector": ref_from_sparse(ring, q, {(i, i): ring.one for i in sub}),
        "phi_basis": StateVector(q, EXACT, ring, phis[k]),
        "phi_basis_matrix": OperatorMatrix(q, EXACT, ring, zip(*phis)),
        "component_character": StateVector(p, EXACT, ring, [
            ref_root_scaled(ring, omega_exponent(ring, -k * x), 1) for x in range(p)]),
        "subfield_fourier": ref_from_sparse(ring, q, block),
        "subfield_fourier_block": ref_from_sparse(ring, len(sub), {
            (pos[n], pos[m]): x for (n, m), x in block.items()}),
        "subfield_displacement": ref_from_sparse(ring, len(sub), {
            (pos[add(m, b)], pos[m]): ring.omega(base + sub_tr(mul(a, m))) for m in sub}),
    }


def new_dense_builders(field, k, d, a, b):
    return {
        "point_projector": hilbert.point_projector(field, k),
        "subspace_projector": hilbert.subspace_projector(field, d),
        "phi_basis": hilbert.phi_basis(field, k),
        "phi_basis_matrix": hilbert.phi_basis_matrix(field),
        "component_character": hilbert.component_character(field, k),
        "subfield_fourier": fourier.subfield_fourier(field, d),
        "subfield_fourier_block": fourier_matrix(field, d),
        "subfield_displacement": heisenberg.displacement(field, a, b, d=d),
    }


@pytest.mark.parametrize("pe", TABLE_FIELDS, ids=str)
def test_diagonal_and_character_operators_match_sparse_builders(pe):
    field = make_field(*pe)
    for d in field.divisors():
        sub = field.subfield_indices(d)
        k, a, b = field.order - 1 - d, sub[-1], sub[len(sub) // 2]
        ref, new = ref_dense_builders(field, k, d, a, b), new_dense_builders(field, k, d, a, b)
        assert ref.keys() == new.keys()
        for name, op in new.items():
            assert_same_triple(op.packed, ref[name].packed)
            assert canonical(op.rows) == canonical(ref[name].rows), name


def test_z_spectrum_projectors_match_sparse_builders():
    field = make_field(3, 2, heisenberg.GF9_FIXTURE_MODULUS)
    ring = ring_for(field)
    report = heisenberg.z_spectrum_example(field)
    for key, alpha in (("z", 1), ("z_eps", field.generator.index)):
        groups = {r: tuple(m for m in range(9)
                           if field.trace_index(field.mul_index(alpha, m)) == r)
                  for r in range(3)}
        assert report[key]["memberships"] == groups
        for r in range(3):
            want = ref_from_sparse(ring, 9, {(m, m): ring.one for m in groups[r]})
            assert_same_triple(OperatorMatrix.projector(ring, 9, groups[r]).packed, want.packed)
    assert report["families_differ"] and report["z"]["decomposition"]


def ref_pack(ring, rows):
    """The packing loop that ``_align`` replaced: each distinct scalar
    brought to (max E, lcm Q) by its own sqrt(p) product and multiplier."""
    distinct = list({id(x): x for row in rows for x in row}.values())
    nonzero = [x for x in distinct if x]
    e_max = max((x.scale_exp for x in nonzero), default=0)
    q_lcm = math.lcm(*(x.denom for x in nonzero))
    aligned = {}
    for x in distinct:
        de, mult = e_max - x.scale_exp, q_lcm // x.denom
        vec = ring._mul(x.coeffs, sqrt_char(ring).coeffs) if de % 2 and x else x.coeffs
        aligned[id(x)] = [mult * ring.char ** (de // 2) * c for c in vec]
    data = np.array([[aligned[id(x)] for x in row] for row in rows], dtype=object)
    return cyclo.compact(data), e_max, q_lcm


@pytest.mark.parametrize("big", [False, True])
def test_pack_matches_per_scalar_alignment(field, big):
    ring = ring_for(field)
    rng = random.Random(field.order)
    for n, m in ((1, 1), (3, 5), (field.order, field.order)):
        rows = random_rows(ring, n, m, rng, big and n > 1)
        got, want = ring.pack(rows), ref_pack(ring, rows)
        assert_same_triple(got, want)
        assert got[0].dtype == want[0].dtype


def wrong_add_weight(monkeypatch, field):
    """Sum digits 0 and 1 into each other's place: a bijection, but no
    addition of the indices' polynomials."""
    digits = np.arange(field.order)[:, None] // field.p ** np.arange(field.ell) % field.p
    weights = field.p ** np.arange(field.ell)
    weights[[0, 1]] = weights[[1, 0]]
    plant_tables(monkeypatch, field, add=(digits[:, None] + digits) % field.p @ weights)


def wrong_frobenius_exponent(monkeypatch, field):
    """m -> m^k for the least k > p prime to q - 1 that is no power of p: a
    bijection fixing 0 and 1, but not additive."""
    q, p = field.order, field.p
    k = next(k for k in range(p + 1, q)
             if math.gcd(k, q - 1) == 1 and k not in {p ** j for j in range(field.ell)})
    plant_tables(monkeypatch, field, frob=np.array([field.pow_index(m, k) for m in range(q)]))


def phase_off_by_one(monkeypatch, field):
    """The trace of one element off by one, so every generator phase read
    at that element is off by one step of omega."""
    trace = field.tables().trace.copy()
    trace[field.order - 1] = (trace[field.order - 1] + 1) % field.p
    plant_tables(monkeypatch, field, trace=trace)


def plant_tables(monkeypatch, field, **arrays):
    # the changed arrays reach the gathers (tables) and the scalar accessors
    bad = field.tables()._replace(**arrays)
    monkeypatch.setattr(field, "tables", lambda: bad)
    monkeypatch.setattr(field, "add_index", lambda a, b: int(bad.add[a, b]))
    monkeypatch.setattr(field, "trace_index", lambda a: int(bad.trace[a]))
    monkeypatch.setattr(field, "frobenius_index", lambda a: int(bad.frob[a]))


def generator_laws(field, gens):
    """Whether X(a) X(b) = X(a + b), Z(a) Z(b) = Z(a + b) and G X(b) G+ =
    X(b^p) hold over label pairs, for generators built by gens(a, b)."""
    labels, laws = table_labels(field), {"shift": True, "diagonal": True, "frobenius": True}
    for a in labels:
        for b in labels:
            one, two, total = gens(a, b), gens(b, a), gens(field.add_index(a, b), 0)
            g = one["frobenius"]
            laws["shift"] &= one["x"] @ gens(0, a)["x"] == gens(0, field.add_index(a, b))["x"]
            laws["diagonal"] &= one["z"] @ two["z"] == total["z"]
            laws["frobenius"] &= (g @ one["x"] @ g.adjoint()
                                  == gens(0, field.frobenius_index(b))["x"])
    return laws


@pytest.mark.parametrize("fault,broken", [(None, None), (wrong_add_weight, "shift"),
                                          (wrong_frobenius_exponent, "frobenius"),
                                          (phase_off_by_one, "diagonal")],
                         ids=["none", "add_weight", "frobenius_exponent", "phase_off_by_one"])
@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (3, 3)], ids=str)
def test_table_faults_fail_on_both_paths(pe, fault, broken, monkeypatch):
    field = make_field(*pe)
    if fault is not None:
        fault(monkeypatch, field)
    got = generator_laws(field, lambda a, b: new_generators(field, a, b))
    assert got == generator_laws(field, lambda a, b: ref_generators(field, a, b))
    assert got[broken] is False if broken else all(got.values())


# -- the gf suite and the generator laws against their per-element loops ------

def ref_gf_suite(field, config=None):
    """The per-element and per-pair loops of the gf suite that the table
    comparisons replaced, sampling 2,000 pairs above q = 81."""
    config = config or VerifyConfig()
    rng = random.Random(config.seed)
    rep = SuiteReport("gf", "")
    q, p = field.order, field.p

    rep.add("frobenius_order",
            all(field.frobenius_index(m, field.ell) == m for m in range(q)))

    pairs = ([(a, b) for a in range(q) for b in range(q)] if q <= 81 else
             [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)])
    ok_add = all(field.frobenius_index(field.add_index(a, b))
                 == field.add_index(field.frobenius_index(a), field.frobenius_index(b))
                 for a, b in pairs)
    ok_mul = all(field.frobenius_index(field.mul_index(a, b))
                 == field.mul_index(field.frobenius_index(a), field.frobenius_index(b))
                 for a, b in pairs)
    rep.add("frobenius_is_ring_map", ok_add and ok_mul)

    rep.add("trace_frobenius_invariant",
            all(field.trace_index(m) == field.trace_index(field.frobenius_index(m))
                for m in range(q)))

    ok = True
    for d in field.divisors():
        ratio = (field.ell // d) % p
        for idx in field.subfield_indices(d):
            if field.trace_index(idx) != (ratio * field.subfield_trace(idx, d)) % p:
                ok = False
    rep.add("trace_subfield_ratio", ok)

    ok = True
    for d in field.divisors():
        if all(field.subfield_trace(idx, d) == 0
               for idx in field.subfield_indices(d)):
            ok = False
    rep.add("subfield_trace_not_identically_zero", ok)

    gram = field.dual_basis.gram
    gram_inv = field.dual_basis.gram_inv
    ell = field.ell
    ident = all((sum(gram[i][k] * gram_inv[k][j] for k in range(ell)) % p)
                == (1 if i == j else 0) for i in range(ell) for j in range(ell))
    rep.add("gram_times_inverse_is_identity", ident)

    eps = field.generator
    dual = field.dual_basis.elements
    rep.add("dual_basis_defining_property",
            all(((eps ** k) * dual[l]).trace() == (1 if k == l else 0)
                for k in range(ell) for l in range(ell)))

    ok = True
    for a, b in pairs:
        std_a, dual_a = field.components(a)
        std_b, dual_b = field.components(b)
        t = field.trace_index(field.mul_index(a, b))
        e1 = sum(x * y for x, y in zip(std_a, dual_b)) % p
        e2 = sum(x * y for x, y in zip(dual_a, std_b)) % p
        e3 = sum(gram[i][j] * std_a[i] * std_b[j]
                 for i in range(ell) for j in range(ell)) % p
        e4 = sum(gram_inv[i][j] * dual_a[i] * dual_b[j]
                 for i in range(ell) for j in range(ell)) % p
        if not (t == e1 == e2 == e3 == e4):
            ok = False
    rep.add("trace_bilinear_four_forms", ok)

    ok = True
    for d in field.divisors():
        sub = set(field.subfield_indices(d))
        for a in sub:
            for b in sub:
                if field.add_index(a, b) not in sub or field.mul_index(a, b) not in sub:
                    ok = False
    rep.add("subfields_closed", ok)

    rep.add("multiplicative_inverses",
            all(field.mul_index(a, field.inv_index(a)) == 1 for a in range(1, q)))

    ok = True
    for d in field.divisors():
        exps = field.galois_group_exponents(d)
        if len(exps) != field.ell // d or exps[-1] != field.ell:
            ok = False
        for k in exps:
            if any(field.frobenius_index(m, k) != m
                   for m in field.subfield_indices(d)):
                ok = False
    rep.add("galois_groups_fix_subfields", ok)
    return rep


def ref_generator_laws(rep, field, rng):
    """The per-pair Monomial products and FieldElement arithmetic of the
    generator laws that the stacked gathers replaced, and the per-pair
    conjugated-shear products at every q; the same rng draws in the same
    order."""
    ring = ring_for(field)
    q = field.order
    els = field.elements()
    nonzero = els[1:]

    scale_pairs = ([(x, y) for x in nonzero for y in nonzero] if q <= 9 else
                   [(rng.choice(nonzero), rng.choice(nonzero)) for _ in range(40)])
    ok = all((sp.generator_scaling(field, x) @ sp.generator_scaling(field, y))
             == sp.generator_scaling(field, x * y) for x, y in scale_pairs)
    rep.add("scaling_subgroup_law", ok)

    shear_pairs = ([(x, y) for x in els for y in els] if q <= 9 else
                   [(rng.choice(els), rng.choice(els)) for _ in range(40)])
    ok = all((sp.generator_shear_z(field, x) @ sp.generator_shear_z(field, y))
             == sp.generator_shear_z(field, x + y) for x, y in shear_pairs)
    rep.add("diagonal_shear_additive_law", ok)
    ok = all((sp.generator_shear_z(field, x) ** field.p)
             == Monomial.identity(ring, q) for x in els)
    rep.add("diagonal_shear_char_power_is_identity", ok)

    check_xis = els if q <= 9 else [field.zero, field.one, rng.choice(els)]
    ok = all(sp.generator_shear_x(field, x).equals(sp.shear_x_closed_form(field, x))
             for x in check_xis)
    rep.add("conjugated_shear_matches_element_sum", ok)
    xpairs = ([(x, y) for x in els for y in els] if q <= 9 else
              [(rng.choice(els), rng.choice(els)) for _ in range(6)])
    additive, unitary = ref_shear_laws(field, *zip(*[(x.index, y.index) for x, y in xpairs]),
                                       [x.index for x in check_xis])
    rep.add("conjugated_shear_additive_law", bool(additive.all()))
    rep.add("conjugated_shear_unitary", bool(unitary.all()))


def verdicts(rep):
    return {item.name: item.status for item in rep.items}


def frob_three_cycle(field):
    """a -> a^p -> c -> a for the first a outside GF(p) and the first c
    outside GF(p) and that pair, with c^p fixed: p-th powers of a, still a
    bijection, but of order 3 at a."""
    frob = field.tables().frob.copy()
    a = next(m for m in range(field.order) if frob[m] != m)
    b = frob[a]
    c = next(m for m in range(field.order) if frob[m] != m and m not in (a, b))
    frob[[a, b, c, frob[c]]] = [b, c, a, frob[c]]
    field._t = field.tables()._replace(frob=frob)


def wrong_mul_row(field):
    """The products by 2 read from the row of 3 (and the column left as it is)."""
    mul = field.tables().mul.copy()
    mul[2] = mul[3]
    field._t = field.tables()._replace(mul=mul)


def wrong_gram_entry(field):
    """Gram entry Tr(1 * 1) off by one, the tables left as they are: only
    the Gram items and the third of the four bilinear forms see it."""
    dual = field.dual_basis
    gram = [list(row) for row in dual.gram]
    gram[0][0] = (gram[0][0] + 1) % field.p
    field._dual = dual.__class__(tuple(map(tuple, gram)), dual.gram_inv, dual.elements)


def planted(pe, fault):
    """An uncached GF(p^ell), so that no operator cache keeps what its
    planted tables build, with the fault applied."""
    field = GFField(*pe)
    fault(field)
    return field


GF_SUITE_FIELDS = [(3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (3, 4), (3, 5)]


@pytest.mark.parametrize("pe", GF_SUITE_FIELDS, ids=str)
def test_gf_suite_matches_per_element_loops(pe):
    field = make_field(*pe)
    got = verdicts(gf_suite(field))
    assert got == verdicts(ref_gf_suite(field))
    assert set(got.values()) == {"pass"}


@pytest.mark.parametrize("fault", [frob_three_cycle, wrong_mul_row, wrong_gram_entry],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("pe", [(3, 2), (5, 2)], ids=str)
def test_gf_suite_faults(pe, fault):
    """The 3-cycle fails frobenius_order and the k = ell Galois check, which
    the old loops passed: they reduced the exponent ell mod ell and took no
    step.  Every other verdict agrees, and each fault fails on both paths."""
    field = planted(pe, fault)
    got, want = verdicts(gf_suite(field)), verdicts(ref_gf_suite(field))
    vacuous = {"frobenius_order", "galois_groups_fix_subfields"}
    if fault is frob_three_cycle:
        assert {name: got[name] for name in vacuous} == dict.fromkeys(vacuous, "fail")
        assert {name: want[name] for name in vacuous} == dict.fromkeys(vacuous, "pass")
        got, want = ({k: v for k, v in d.items() if k not in vacuous} for d in (got, want))
    assert got == want and "fail" in got.values()
    if fault is wrong_gram_entry:
        assert {name for name, status in got.items() if status == "fail"} == {
            "gram_times_inverse_is_identity", "trace_bilinear_four_forms"}


def shear_z_phase_off_by_one(monkeypatch, field):
    """The phase of S_z(q - 1) one root step off at column 1."""
    original = sp.generator_shear_z

    def shifted(f, xi):  # one parameter, or the family of an index array
        mono = original(f, xi)
        hit = np.asarray(f.indices(xi)) == f.order - 1
        return Monomial(mono.ring, mono.perm, mono.phase + (hit[..., None] & (np.arange(f.order) == 1)))
    monkeypatch.setattr(sp, "generator_shear_z", shifted)


def scaling_conjugated_by_a_diagonal(monkeypatch, field):
    """Not a fault: D+ P_x D for the diagonal D = diag(zeta^m) has the phase
    m x - m at column m and keeps the scaling law, which a composition that
    does not gather the first factor's phases through the second's
    permutation would break."""
    original = sp.generator_scaling

    def conjugated(f, xi):
        perm = original(f, xi).perm
        return Monomial(ring_for(f), perm, perm - np.arange(f.order))
    monkeypatch.setattr(sp, "generator_scaling", conjugated)


def laws_of(paths, field, seed=12345 + 3):
    """The generator-law verdicts of each path, and whether each path left
    the rng in the same state."""
    out, states = [], []
    for path in paths:
        rep, rng = SuiteReport("symplectic", ""), random.Random(seed)
        path(rep, field, rng)
        out.append(verdicts(rep))
        states.append(rng.getstate())
    return out, states


@pytest.mark.parametrize("pe", [(3, 1), (3, 2), (5, 2), (3, 3), (3, 4), (3, 5)], ids=str)
def test_generator_laws_match_per_pair_loops(pe):
    field = make_field(*pe)
    (got, want), (state, ref_state) = laws_of([_generator_laws, ref_generator_laws], field)
    assert got == want and state == ref_state
    assert set(got.values()) == {"pass"}


@pytest.mark.parametrize("fault,broken", [
    (shear_z_phase_off_by_one, {"diagonal_shear_additive_law",
                                "diagonal_shear_char_power_is_identity",
                                "conjugated_shear_matches_element_sum"}),
    (shear_x_sign_flipped, {"conjugated_shear_matches_element_sum",
                            "conjugated_shear_additive_law"}),
    (scaling_conjugated_by_a_diagonal, set()),
], ids=["shear_z_phase", "shear_x_sign", "conjugated_scaling"])
def test_generator_law_faults_fail_on_both_paths(fault, broken, monkeypatch):
    field = make_field(3, 2)
    fault(monkeypatch, field)
    (got, want), _ = laws_of([_generator_laws, ref_generator_laws], field)
    assert got == want
    assert {name for name, status in got.items() if status == "fail"} == broken


def test_generator_laws_under_a_wrong_mul_row():
    field = planted((3, 2), wrong_mul_row)
    (got, want), _ = laws_of([_generator_laws, ref_generator_laws], field)
    assert got == want and got["scaling_subgroup_law"] == "fail"


# -- the Frobenius suite by gather against its dense form ---------------------

def ref_frobenius_items(field):
    """The Frobenius suite as it was with G and the Galois members in dense
    form: every product with them an exact GEMM."""
    rep = SuiteReport("frobenius", "")
    ring = ring_for(field)
    q, ell = field.order, field.ell
    g = frobenius.frobenius_monomial(field)
    g_dense = frobenius.frobenius_matrix(field)
    ident = OperatorMatrix.identity(ring, q)

    rep.add("order_divides_ell", (g ** ell) == Monomial.identity(ring, q))
    rep.add("unitary", (g_dense @ g_dense.adjoint()).equals(ident))
    rep.add("is_permutation", sorted(g.perm) == list(range(q))
            and all(ph == 0 for ph in g.phase))

    f = fourier_matrix(field)
    rep.add("commutes_with_fourier", (f @ g_dense).equals(g_dense @ f))
    rep.add("commutes_with_fourier_projectors", all(
        (pr @ g_dense).equals(g_dense @ pr) for pr in fourier.fourier_spectrum(field).projectors))

    ok = True
    for d in field.divisors():
        pi = hilbert.subspace_projector(field, d)
        if not (g_dense @ pi).equals(pi @ g_dense):
            ok = False
    rep.add("commutes_with_subspace_projectors", ok)

    ok = True
    for d in field.divisors():
        family = frobenius.galois_group_H(field, d)
        members = [family[k].to_matrix() for k in range(len(family.perm))]
        if len(members) != ell // d:
            ok = False
        pi = hilbert.subspace_projector(field, d)
        for mat in members:
            if not (mat @ pi).equals(pi):
                ok = False
    rep.add("galois_groups_fix_subspaces", ok)

    spec = frobenius.frobenius_spectrum(field)
    _spectral_items(rep, spec, g_dense)
    rep.add("projectors_commute_with_fourier",
            all((f @ pr).equals(pr @ f) for pr in spec.projectors))
    ok = True
    for d in field.divisors():
        cont = frobenius.subfield_containment_check(field, d)
        if not (cont["left"] and cont["right"]):
            ok = False
    rep.add("subspace_inside_combined_eigenspace", ok)
    _ranks_item(rep, spec, q)
    return rep


def frobenius_phase_off_by_one(monkeypatch):
    """G with the phase of its last column one root step off: still monomial."""
    original = frobenius.frobenius_monomial

    def shifted(field):
        g = original(field)
        phase = g.phase.copy()
        phase[-1] += 1
        return Monomial(g.ring, g.perm, phase)

    monkeypatch.setattr(frobenius, "frobenius_monomial", shifted)


def frobenius_leaves_the_prime_field(monkeypatch):
    """G with the images of 0 and q - 1 swapped: still a permutation, but
    above GF(p) one that maps 0 out of the prime field."""
    original = frobenius.frobenius_monomial

    def swapped(field):
        perm = original(field).perm.copy()
        perm[[0, -1]] = perm[[-1, 0]]
        return Monomial.permutation(ring_for(field), perm)

    monkeypatch.setattr(frobenius, "frobenius_monomial", swapped)


def swapped_galois_member(monkeypatch):
    """The last member of the GF(p) group (G^ell, the identity) with the
    images of 0 and 1 swapped: still a permutation, but one that moves
    points of the prime field; the other members and groups stay true."""
    original = frobenius.galois_group_H

    def swapped(field, d):
        members = original(field, d)
        if d > 1:
            return members
        perm = members.perm.copy()
        perm[-1, [0, 1]] = perm[-1, [1, 0]]
        return Monomial(members.ring, perm, members.phase)

    monkeypatch.setattr(frobenius, "galois_group_H", swapped)


@pytest.fixture
def fresh_frobenius_spectrum():
    # the spectrum is cached per field; a planted G must build its own
    frobenius.frobenius_spectrum.cache_clear()
    yield
    frobenius.frobenius_spectrum.cache_clear()


@pytest.mark.parametrize("fault,broken", [
    (None, set()),
    (wrong_frobenius, {"galois_groups_fix_subspaces"}),
    (frobenius_phase_off_by_one, {"is_permutation", "order_divides_ell"}),
    (frobenius_leaves_the_prime_field, {"galois_groups_fix_subspaces"}),
    (swapped_galois_member, {"galois_groups_fix_subspaces"}),
], ids=["none", "wrong_frobenius", "phase_off_by_one", "leaves_the_prime_field",
        "swapped_galois_member"])
@pytest.mark.parametrize("pe", [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2)], ids=str)
def test_frobenius_suite_matches_dense_form(pe, fault, broken, monkeypatch,
                                            fresh_frobenius_spectrum):
    field = make_field(*pe)
    if fault is not None:
        fault(monkeypatch)
    got = verdicts(frobenius_suite(field))
    assert got == verdicts(ref_frobenius_items(field))
    failed = {name for name, status in got.items() if status == "fail"}
    assert broken <= failed and bool(failed) == (fault is not None)


@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (7, 2), (13, 2)], ids=str)
def test_frobenius_gathers_match_dense_products(pe):
    # ring degrees 4, 8, 12 and 24; G has no phases, so G Z(1) runs the
    # root rotations too
    field = make_field(*pe)
    f = fourier_matrix(field)
    fprojs = fourier.fourier_spectrum(field).projectors
    g = frobenius.frobenius_monomial(field)
    for mono in (g, g @ heisenberg.z_monomial(field, 1)):
        dense = mono.to_matrix()
        pairs = [(f @ mono, f @ dense), (mono @ f, dense @ f)]
        pairs += [(pr @ mono, pr @ dense) for pr in fprojs]
        pairs += [(mono @ pr, dense @ pr) for pr in fprojs]
        for d in field.divisors():
            pi = hilbert.subspace_projector(field, d)
            pairs += [(mono @ pi, dense @ pi), (pi @ mono, pi @ dense)]
        for got, want in pairs:
            assert_same_triple(got.packed, want.packed)
    for d in field.divisors():
        pi = hilbert.subspace_projector(field, d)
        members = frobenius.galois_group_H(field, d)
        for k in range(len(members.perm)):
            assert_same_triple((members[k] @ pi).packed, (members[k].to_matrix() @ pi).packed)


# -- monomials with all-zero phases by plain gathers ---------------------------

def rotated_products(mono, a, state):
    """mono @ a, a @ mono, mono @ a @ mono^dagger and mono applied to state,
    each with the phases rotated through ``times_roots`` even when they are
    all zero: the path the plain gathers replaced."""
    ring, inv = a.ring, np.argsort(mono.perm)
    (data, e, q), (vec, ve, vq) = a.packed, state.packed
    phase = mono.phase[inv]
    return [(ring.times_roots(data[inv], row_roots=phase), e, q),
            (ring.times_roots(data[:, mono.perm], col_roots=mono.phase), e, q),
            (ring.times_roots(data[np.ix_(inv, inv)], phase, -phase), e, q),
            (ring.times_roots(vec[inv], row_roots=phase), ve, vq)]


@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (7, 2), (13, 2)], ids=str)
def test_zero_phase_monomials_match_rotated_path(pe):
    field = make_field(*pe)
    ring, q = ring_for(field), field.order
    monos = {"G": frobenius.frobenius_monomial(field),
             "galois_member": frobenius.galois_group_H(field, 1)[-1],
             "parity": heisenberg.parity_monomial(field),
             "phased": heisenberg.displacement_monomial(field, 1, q - 1)}
    assert not any(monos[k].phase.any() for k in ("G", "galois_member", "parity"))
    assert monos["phased"].phase.any()
    f = fourier_matrix(field)
    data, e, den = f.packed
    state = StateVector.from_packed(ring, (data[:, 1:2], e, den))
    for name, mono in monos.items():
        got = [mono @ f, f @ mono, mono.conjugate_dense(f), mono.apply(state)]
        for value, (want, we, wq) in zip(got, rotated_products(mono, f, state)):
            wanted = (cyclo.compact(want), we, wq)
            assert_same_triple(value.packed, wanted), name
            assert value.packed[0].dtype == wanted[0].dtype, name
        # a product of two monomials reduces its phases only when both carry some
        for other in monos.values():
            phase = (other.phase + mono.phase[other.perm]) % ring.order
            prod = mono @ other
            assert np.array_equal(prod.perm, mono.perm[other.perm]), name
            assert np.array_equal(prod.phase, phase), name
            assert prod.phase.dtype == phase.dtype, name


# -- the label-grid certificate, the sums by translation, one block budget -----

def blocked_resolution_sum(field, theta):
    """The sum the translated one replaced: per block of labels of the grid,
    one root-sum into the q x q entries, the block sums added."""
    ring, q = ring_for(field), field.order
    data, e, den = theta.packed
    grid = label_grid(field)
    step = max(1, REF_BLOCK_ENTRIES // (q * q))
    total = None
    for i in range(0, q * q, step):
        pm, ph = grid.perm[i:i + step], grid.phase[i:i + step]
        part = ring.root_sum(data, ph[:, :, None] - ph[:, None, :],
                             pm[:, :, None] * q + pm[:, None, :], (q, q),
                             e + 2 * field.ell, den)
        total = part if total is None else ring.add(total, part)
    return total


def whole_overcomplete_sum(field, psi, chi):
    """The one-block expansion the streamed one replaced: the (q^2, q) rows
    D(l) psi, their overlaps with chi and the sum as two products."""
    ring, q = ring_for(field), field.order
    grid = label_grid(field)
    data, e, den = psi.packed
    slots = np.arange(q * q)[:, None] * q + grid.perm
    moved, e, den = ring.root_sum(data[:, 0], grid.phase, slots, (q * q, q), e, den)
    overlaps = ring.matmul((ring.conj_coeffs(moved), e, den), chi.packed)
    return ring.matmul((moved.transpose(1, 0, 2), e + 2 * field.ell, den), overlaps)


def resolution_thetas(field):
    """Theta = the identity, a point projector and a random rank-one operator."""
    return [OperatorMatrix.identity(ring_for(field), field.order), point_projector(field, 1),
            rank_one_with_trace(field, random.Random(field.order))]


def perm_depends_on_a(monkeypatch, field):
    """Make D(1, 0) move m to m + 1, as D(1, 1) does, for the per-label and
    the family path: a permutation that depends on a."""
    original = heisenberg.displacement_monomial

    def wrong(field_, alpha, beta, phase_coeff=None, d=None):
        mono = original(field_, alpha, beta, phase_coeff, d)
        if d is not None:  # the fault is the field's; subfield blocks stay as built
            return mono
        hit = (np.asarray(field_.indices(alpha)) == 1) & (np.asarray(field_.indices(beta)) == 0)
        return Monomial(mono.ring, np.where(hit[..., None], field_.tables().add[1], mono.perm),
                        mono.phase)

    monkeypatch.setattr(heisenberg, "displacement_monomial", wrong)


TRANSLATION_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]
# the planted faults and the certificate's witness (a, b, m) under each:
# perturbed_arrays offsets entry 0 of D(0, 1), so its entry 1 is the first
# whose offset from entry 0 is wrong
CERTIFICATE_FAULTS = [(perturbed_arrays, (0, 1, 1)), (perm_depends_on_a, (1, 0, 0))]


@pytest.mark.parametrize("pe", TRANSLATION_FIELDS + [(7, 2)], ids=str)
def test_translated_resolution_matches_blocked_sum(pe):
    field = make_field(*pe)
    assert certificate(field) is None
    for theta in resolution_thetas(field):
        assert_same_triple(heisenberg.resolution_sum(field, theta),
                           blocked_resolution_sum(field, theta))
        assert resolution_of_identity_check(field, theta, None) == {"holds": True,
                                                                    "certificate": None}


@pytest.mark.parametrize("fault,witness", CERTIFICATE_FAULTS, ids=["phase_offset", "perm_row"])
@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (3, 2)], ids=str)
def test_certificate_faults_fail_the_resolution_check(pe, fault, witness, monkeypatch):
    # the sum reads only the field tables and F, so it is the unfaulted
    # one; the failing certificate fails the check for every Theta, also
    # where the blocked sum over the faulty grid still gave tr(Theta) 1
    field = make_field(*pe)
    thetas = resolution_thetas(field)
    want = [blocked_resolution_sum(field, theta) for theta in thetas]
    fault(monkeypatch, field)
    assert certificate(field) == witness
    for theta, unfaulted in zip(thetas, want):
        assert_same_triple(heisenberg.resolution_sum(field, theta), unfaulted)
        assert resolution_of_identity_check(field, theta, witness) == {"holds": False,
                                                                       "certificate": witness}


@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (3, 3)], ids=str)
def test_perturbed_phase_keeps_the_certificate(pe):
    # the control changes every label's phase constant only: the certificate
    # holds, and the three phase-sensitive label items still fail
    field = make_field(*pe)
    assert heisenberg.grid_certificate(field, 1)[0] is None
    rep = heisenberg_suite(field, VerifyConfig(displacement_phase_coeff=1))
    assert {i.name for i in rep.items if i.status == "fail"} == {
        "composition_law", "adjoint_negates_label", "fourier_maps_labels"}


@pytest.mark.parametrize("fault", [None, perturbed_arrays, perm_depends_on_a],
                         ids=["none", "phase_offset", "perm_row"])
@pytest.mark.parametrize("pe", TRANSLATION_FIELDS, ids=str)
def test_streamed_overcomplete_matches_whole_sum(pe, fault, monkeypatch):
    # the products read D in its certified form, not the grid: under a grid
    # fault they give the unfaulted whole sum, and the check fails with the
    # certificate's witness
    field = make_field(*pe)
    ring = ring_for(field)
    chi = random_state(ring, field.order, random.Random(field.order), big=True)
    psis = (phi_basis(field, 0), point_mass(ring, field.order, 1))
    wants = [whole_overcomplete_sum(field, psi, chi) for psi in psis]
    if fault is not None:
        fault(monkeypatch, field)
    cert = certificate(field)
    assert cert == dict(CERTIFICATE_FAULTS).get(fault)
    for psi, want in zip(psis, wants):
        assert_same_triple(heisenberg.overcomplete_sum(field, psi, chi), want)
        assert overcomplete_expansion_check(field, psi, chi, cert) == {
            "holds": cert is None and StateVector.from_packed(ring, want).equals(chi),
            "certificate": cert}


def certificate(field):
    """The label certificate, built through the module, so that a fault
    planted there reaches it."""
    return heisenberg.grid_certificate(field)[0]


def grid_reading_certificate(field, grid):
    """The certificate as it was read off a whole ``label_grid``: None when
    every member l = a * q + b moves m to m + b with a phase offset
    Tr(a m) N / p from its entry 0, else the first failing (a, b, m)."""
    q, t = field.order, field.tables()
    n = ring_for(field).order
    offset = t.trace[t.mul] * (n // field.p)
    for s in heisenberg.label_blocks(q * q, q):
        a, b = np.divmod(np.arange(q * q)[s], q)
        phase = grid.phase[s]
        bad = (grid.perm[s] != t.add[b]) | ((phase - phase[:, :1] - offset[a]) % n != 0)
        if bad.any():
            row, m = np.argwhere(bad)[0]
            return int(a[row]), int(b[row]), int(m)
    return None


@pytest.mark.parametrize("entries", [None, 1, 3000])
@pytest.mark.parametrize("fault", [None, perturbed_arrays, perm_depends_on_a],
                         ids=["none", "phase_offset", "perm_row"])
@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (3, 2), (3, 3)], ids=str)
def test_blocked_certificate_matches_the_grid(pe, fault, entries, monkeypatch):
    # the default block budget, one label per block, or a few: the blocked
    # certificate and its constants are the whole grid's certificate and
    # the grid's phases at entry 0, also under faults planted in the displacements
    field = make_field(*pe)
    q = field.order
    if fault is not None:
        fault(monkeypatch, field)
    grid = label_grid(field)
    if entries is not None:
        monkeypatch.setattr(heisenberg, "LABEL_BLOCK_ENTRIES", entries)
    cert, constants = heisenberg.grid_certificate(field)
    assert cert == grid_reading_certificate(field, grid) == dict(CERTIFICATE_FAULTS).get(fault)
    assert constants.shape == (q, q)
    assert np.array_equal(constants, grid.phase[:, 0].reshape(q, q))


def test_grid_certificate_peak_below_two_megabytes():
    # one label block at a time plus the q^2 offsets and constants, where
    # the GF(125) label grid alone takes 31 MB of int32 arrays
    field = make_field(5, 3)
    heisenberg.grid_certificate(field)  # fill the field's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cert, constants = heisenberg.grid_certificate(field)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert cert is None and constants.shape == (125, 125)
    assert peak <= 2_000_000, peak


@pytest.mark.parametrize("entries", [None, 1])
@pytest.mark.parametrize("fault", [perturbed_arrays], ids=["phase_offset"])
def test_weyl_sums_follow_planted_displacements(fault, entries, monkeypatch):
    # the default block budget, or one label per block; the sums read D in
    # its certified form, so under a planted phase of D(0, 1) they are the
    # unfaulted references and the round trip closes, while the grid
    # certificate carries the fault's witness and fails the suite's item
    field = GFField(3, 2, make_field(3, 2).modulus)  # a field object no cache has seen
    theta = random_operator(field, random.Random(7), big=True)
    want = ref_weyl_expand(field, theta.rows)
    fault(monkeypatch, field)
    if entries is not None:
        monkeypatch.setattr(heisenberg, "LABEL_BLOCK_ENTRIES", entries)
    table = weyl_expand(field, theta)
    assert canonical(table.rows) == canonical(want)
    rebuilt = weyl_reconstruct(field, table)
    assert rebuilt.equals(theta)
    assert certificate(field) == (0, 1, 1)
    item = next(i for i in heisenberg_suite(field).items if i.name == "weyl_expansion_round_trip")
    assert (item.status, item.detail) == ("fail", "certificate=(0, 1, 1)")


# -- the label sums as products with the character table, against the root
# sums and the np.add.at scatter they replaced --------------------------------

def shift_blocks(field):
    """Per block of shifts b: b and the family of D(a, b) for every a,
    member [k, a] for b = b[k]."""
    every = np.arange(field.order)
    width = field.order * max(field.order, ring_for(field).order)
    for s in heisenberg.label_blocks(field.order, width):
        yield every[s], displacement_monomial(field, every, every[s][:, None])


def rootsum_weyl_expand(field, theta):
    """tr(Theta D(a, b)) = sum_m Theta(m, m + b) zeta^phase[m]: per block of
    shifts, Theta(m, m + b) gathered once per shift and one root-sum of the
    label phases into the block's table slots, the blocks stacked."""
    q, t, ring = field.order, field.tables(), ring_for(field)
    data, e, den = theta.packed
    parts = []
    for b, d in shift_blocks(field):
        slots = np.arange(len(b) * q).reshape(len(b), q, 1)
        parts.append(ring.root_sum(data[np.arange(q), t.add[b][:, None]], d.phase,
                                   np.broadcast_to(slots, d.phase.shape), (len(b) * q,), e, den))
    table, e, den = ring.stack(parts)  # row b * q + a
    return table.reshape(q, q, ring.degree).transpose(1, 0, 2), e, den


def rootsum_weyl_reconstruct(field, table):
    """p^-ell sum D(a, b) W(-a, -b): per block of shifts, one root-sum into
    the q entries of each shift; then one more root-sum moves the stacked
    shifts to (m + b, m)."""
    q, t, ring = field.order, field.tables(), ring_for(field)
    data, e, den = table.packed
    weights = data[np.ix_(t.neg, t.neg)].transpose(1, 0, 2)[:, :, None]  # [b, a]: W(-a, -b)
    parts = []
    for b, d in shift_blocks(field):
        slots = np.arange(len(b) * q).reshape(len(b), 1, q)
        parts.append(ring.root_sum(weights[b], d.phase, np.broadcast_to(slots, d.phase.shape),
                                   (len(b), q), e, den))
    summed, e, den = ring.stack(parts)  # row b: the q entries of shift b
    return ring.root_sum(summed, None, t.add * q + np.arange(q), (q, q), e + 2 * field.ell, den)


def rootsum_resolution_sum(field, theta):
    """p^-ell sum D Theta D+ summed over a for each entry (per block of rows),
    then over b along the translated diagonals: two root-sums of q^3 terms
    on the trace and add tables."""
    q, t, ring = field.order, field.tables(), ring_for(field)
    data, e, den = theta.packed
    offset = (t.trace[t.mul] * (ring.order // field.p)).T  # [m, a]: Tr(a m) N / p
    parts = []
    for s in heisenberg.label_blocks(q, q * max(q, ring.order)):
        rows = offset[s]
        slots = np.arange(len(rows) * q).reshape(-1, q, 1)
        parts.append(ring.root_sum(data[s, :, None], rows[:, None, :] - offset[None],
                                   np.broadcast_to(slots, slots.shape[:2] + (q,)),
                                   (len(rows), q), e, den))
    summed, e, den = ring.stack(parts)
    moved = t.add[:, :, None] * q + t.add[:, None, :]  # [b, i, j]: (i + b, j + b)
    return ring.root_sum(summed[None], None, moved, (q, q), e + 2 * field.ell, den)


def streamed_overcomplete_sum(field, psi, chi):
    """p^-ell sum (D psi, chi) D psi per block of labels of the grid: the
    rows D(l) psi added into place by np.add.at from the N root rotations
    of psi, their overlaps with chi and the block's part of the sum as two
    products, the parts added."""
    ring = ring_for(field)
    q, deg = field.order, ring.degree
    grid = label_grid(field)
    data, e, den = psi.packed
    turned = ring.times_roots(np.broadcast_to(data[:, 0], (ring.order, q, deg)),
                              row_roots=np.arange(ring.order))  # [k, m] = psi(m) zeta^k
    total = None
    for s in heisenberg.label_blocks(q * q, q * deg):
        perm, phase = grid.perm[s], grid.phase[s]
        moved = np.zeros(perm.shape + (deg,), dtype=np.result_type(turned, np.int64))
        at = (np.arange(len(perm))[:, None] * q + perm)[..., None] * deg + np.arange(deg)
        np.add.at(moved.reshape(-1), at.reshape(-1),
                  turned[phase, np.arange(q)].astype(moved.dtype).reshape(-1))
        overlaps = ring.matmul((ring.conj_coeffs(moved), e, den), chi.packed)
        part = ring.matmul((moved.transpose(1, 0, 2), e + 2 * field.ell, den), overlaps)
        total = part if total is None else ring.add(total, part)
    return total


LABEL_PRODUCT_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)]


def label_sum_operands(field):
    """Dense operands with mixed (E, Q): the suite's draw (scale exponents
    0-2, denominators 1-3) and, at q <= 27, one with an entry past 2^63,
    so that the products run on Python ints."""
    ops = [_random_matrix(field, random.Random(field.order))]
    if field.order <= 27:
        ops.append(random_operator(field, random.Random(field.order + 1), big=True))
    return ops


@pytest.mark.parametrize("pe", LABEL_PRODUCT_FIELDS + [(5, 3)], ids=str)
def test_weyl_products_match_root_sums(pe):
    # the reconstruction is compared up to GF(49); GF(125) runs the expansion
    field = make_field(*pe)
    for theta in label_sum_operands(field):
        table = weyl_expand(field, theta)
        assert_same_triple(table.packed, rootsum_weyl_expand(field, theta))
        if field.order <= 49:
            assert_same_triple(weyl_reconstruct(field, table).packed,
                               rootsum_weyl_reconstruct(field, table))


@pytest.mark.parametrize("pe", LABEL_PRODUCT_FIELDS, ids=str)
def test_resolution_products_match_root_sums(pe):
    field = make_field(*pe)
    for theta in resolution_thetas(field) + label_sum_operands(field):
        assert_same_triple(heisenberg.resolution_sum(field, theta),
                           rootsum_resolution_sum(field, theta))


@pytest.mark.parametrize("pe", LABEL_PRODUCT_FIELDS, ids=str)
def test_overcomplete_products_match_streamed_sum(pe):
    field = make_field(*pe)
    ring, q = ring_for(field), field.order
    chi = random_state(ring, q, random.Random(q), big=q <= 27)
    for psi in (phi_basis(field, 0), point_mass(ring, q, 1),
                _random_state(field, random.Random(q + 2))):
        assert_same_triple(heisenberg.overcomplete_sum(field, psi, chi),
                           streamed_overcomplete_sum(field, psi, chi))


def one_entry_off_by_one_root(monkeypatch, field):
    """One entry of each sum's operand times zeta, between the sum and its
    comparison: a Weyl table entry between expand and reconstruct, a
    diagonal entry of Theta (tr Theta changes) and an entry of chi."""
    ring, q = ring_for(field), field.order
    expand, resolve, overcomplete = (heisenberg.weyl_expand, heisenberg.resolution_sum,
                                     heisenberg.overcomplete_sum)

    def turned(rows, cells):  # the first nonzero entry among cells times zeta
        rows = [list(row) for row in rows]
        i, j = next((i, j) for i, j in cells if rows[i][j])
        rows[i][j] = rows[i][j].times_root(1)
        return rows

    every = [(i, j) for i in range(q) for j in range(q)]
    diagonal = [(i, i) for i in range(q)]
    monkeypatch.setattr(heisenberg, "weyl_expand", lambda f, theta: OperatorMatrix(
        q, EXACT, ring, turned(expand(f, theta).rows, every)))
    monkeypatch.setattr(heisenberg, "resolution_sum", lambda f, theta: resolve(
        f, OperatorMatrix(q, EXACT, ring, turned(theta.rows, diagonal))))
    monkeypatch.setattr(heisenberg, "overcomplete_sum", lambda f, psi, chi: overcomplete(
        f, psi, state_of(ring, [row[0] for row in turned([[x] for x in chi.values],
                                                          [(i, 0) for i in range(q)])])))


LABEL_SUM_ITEMS = ("weyl_expansion_round_trip", "resolution_of_identity[theta=identity]",
                   "resolution_of_identity[theta=point_projector]",
                   "resolution_of_identity[theta=random_rank_one]", "overcomplete_expansion")


@pytest.mark.parametrize("fault,witness,passing", [
    (None, None, set(LABEL_SUM_ITEMS)),
    # R R+ != q 1; a diagonal Theta reads only the diagonal of K, which is q
    # whatever the trace table (D Theta D+ = Theta for every unitary D)
    (phase_off_by_one, None, {"resolution_of_identity[theta=identity]",
                              "resolution_of_identity[theta=point_projector]"}),
    (perturbed_arrays, (0, 1, 1), set()),
    (perm_depends_on_a, (1, 0, 0), set()),
    (one_entry_off_by_one_root, None, set()),
], ids=["none", "trace_entry", "phase_offset", "perm_row", "one_entry"])
@pytest.mark.parametrize("pe", [(5, 1), (3, 2), (5, 2)], ids=str)
def test_planted_faults_fail_the_label_sum_items(pe, fault, witness, passing, monkeypatch):
    # a field object no cache has seen, so that a planted trace reaches F
    field = GFField(*pe, make_field(*pe).modulus)
    if fault is not None:
        fault(monkeypatch, field)
    items = {i.name: i for i in heisenberg_suite(field).items}
    assert {name for name in LABEL_SUM_ITEMS if items[name].status == "pass"} == passing
    assert {items[name].detail for name in LABEL_SUM_ITEMS} == {
        "" if witness is None else f"certificate={witness}"}


def test_difference_codes_fall_back_off_the_digit_table(monkeypatch):
    # base-2p digit codes on the field's own add table; on one that is a
    # group but not digit-wise, the codes q x + y of the q x q table
    field = make_field(3, 2)
    k = np.arange(field.order)
    for fault, width in ((None, 6 ** 2), (wrong_add_weight, 9 * 9)):
        field = GFField(3, 2, field.modulus)  # a field object no cache has seen
        if fault is not None:
            fault(monkeypatch, field)
        cx, cy, at = sp._difference_codes(field)
        t = field.tables()
        assert len(at) == width
        assert np.array_equal(at[cx[:, None] + cy], t.add[k[:, None], t.neg[k]])
        elements, labels = sp.enumerate_group(field), [field.one, field.generator]
        got = sp.action_sweep(field, elements, labels)
        assert np.array_equal(got, dense_action_sweep(field, elements, labels))


# -- label laws read from the certified grid ---------------------------------------
#
# ``heisenberg.label_laws`` reads the composition law, adjoint, Fourier
# covariance and trace orthogonality off the grid's q^2 phase constants, and
# the suite gates them on the grid certificate.  The references are the
# kernels they replaced, on every label or pair of labels: the two moved
# kernels above, and the suite's per-block adjoint and Fourier gathers.

LAW_NAMES = ("composition_law", "adjoint_negates_label", "fourier_maps_labels",
             "orthogonality_under_trace")


def gather_label_laws(field, grid):
    """The four label laws of a grid by the kernels label_laws replaced."""
    q, n, t = field.order, ring_for(field).order, field.tables()
    a_of, b_of = np.divmod(np.arange(q * q), q)
    first, second = np.divmod(np.arange(q ** 4), q * q)
    neg, image = t.neg[a_of] * q + t.neg[b_of], b_of * q + t.neg[a_of]
    f_exp = (n // field.p) * t.trace[t.mul] % n
    return {
        "composition_law": composition_law_holds(field, grid, first, second),
        "adjoint_negates_label": all(grid[s].adjoint().matches(grid[neg[s]]).all()
                                     for s in heisenberg.label_blocks(q * q, q)),
        "fourier_maps_labels": all(
            heisenberg.fourier_intertwines(f_exp, grid[s], grid[image[s]]).all()
            for s in heisenberg.label_blocks(q * q, q * q)),
        "orthogonality_under_trace": trace_orthogonality_holds(field, grid, first, second)}


def derived_label_laws(field, coeff=None, names=LAW_NAMES):
    """label_laws on the certificate's constants, gated on the certificate
    as the suite reads them."""
    cert, constants = heisenberg.grid_certificate(field, coeff)
    laws = heisenberg.label_laws(field, constants)
    return {name: cert is None and laws[name] for name in names}


@pytest.mark.parametrize("coeff", [None, 1])
@pytest.mark.parametrize("pe", LABEL_FIELDS, ids=str)
def test_label_laws_match_the_gather_kernels(pe, coeff):
    field = make_field(*pe)
    got = derived_label_laws(field, coeff)
    assert got == gather_label_laws(field, label_grid(field, coeff))
    assert heisenberg.label_laws(field, heisenberg.grid_certificate(field, coeff)[1])[
        "premise"] is None
    # the wrong half-trace coefficient breaks exactly the phase laws
    assert {name for name in LAW_NAMES if not got[name]} == (
        set() if coeff is None else set(LAW_NAMES) - {"orthogonality_under_trace"})


def phase_constant_off_by_one_root(monkeypatch, field):
    """D(1, 1) times zeta: one phase constant off by one root, with every
    offset from entry 0 kept, so the certificate holds."""
    original = heisenberg.displacement_monomial

    def wrong(field_, alpha, beta, phase_coeff=None, d=None):
        mono = original(field_, alpha, beta, phase_coeff, d)
        if d is not None:  # the fault is the field's; subfield blocks stay as built
            return mono
        hit = (np.asarray(field_.indices(alpha)) == 1) & (np.asarray(field_.indices(beta)) == 1)
        return Monomial(mono.ring, mono.perm, mono.phase + hit[..., None])

    monkeypatch.setattr(heisenberg, "displacement_monomial", wrong)


def linear_phase_shift(monkeypatch, field):
    """Every D(a, b) times omega^Tr(a): phi = Tr(a) N / p is additive and odd,
    so the composition law and the adjoint hold, but F maps D(a, b) to
    omega^(Tr(a) - Tr(b)) D(b, -a)."""
    original = heisenberg.displacement_monomial
    step = ring_for(field).order // field.p

    def wrong(field_, alpha, beta, phase_coeff=None, d=None):
        mono = original(field_, alpha, beta, phase_coeff, d)
        if d is not None:  # the fault is the field's; subfield blocks stay as built
            return mono
        shift = field_.tables().trace[np.asarray(field_.indices(alpha))] * step
        return Monomial(mono.ring, mono.perm, mono.phase + shift[..., None])

    monkeypatch.setattr(heisenberg, "displacement_monomial", wrong)


def swapped_add_entries(monkeypatch, field):
    """add[1, 0] and add[1, 1] swapped: each row is still a permutation, but
    the table is no digit-wise sum (and D(a, 1) now fixes 1)."""
    add = field.tables().add.copy()
    add[1, [0, 1]] = add[1, [1, 0]]
    plant_tables(monkeypatch, field, add=add)


def digit_phase_shift(monkeypatch, field):
    """Every D(a, b) times zeta^(digit sum of a): linear in the digits, but
    in steps of zeta, so p times a generator's shift is not 0 mod N and the
    shift is no homomorphism."""
    original = heisenberg.displacement_monomial
    digit_sum = (np.arange(field.order)[:, None] // field.p ** np.arange(field.ell)
                 % field.p).sum(axis=1)

    def wrong(field_, alpha, beta, phase_coeff=None, d=None):
        mono = original(field_, alpha, beta, phase_coeff, d)
        if d is not None:  # the fault is the field's; subfield blocks stay as built
            return mono
        shift = digit_sum[np.asarray(field_.indices(alpha))]
        return Monomial(mono.ring, mono.perm, mono.phase + shift[..., None])

    monkeypatch.setattr(heisenberg, "displacement_monomial", wrong)


def neg_is_the_identity(monkeypatch, field):
    """neg[x] = x: the adjoint then compares D(a, b)+ with D(a, b), whose
    constants 2 C = s Tr(a b) still satisfy the adjoint relation."""
    plant_tables(monkeypatch, field, neg=np.arange(field.order))


def zero_trace(monkeypatch, field):
    """Tr = 0: bilinear, but degenerate, so every D(a, b) is X^b and only
    the character sums see it."""
    plant_tables(monkeypatch, field, trace=np.zeros(field.order, dtype=np.int64))


ALL_LAWS = set(LAW_NAMES)
PHASE_LAWS = ALL_LAWS - {"orthogonality_under_trace"}
# each planted fault and the laws that fail under it, on both paths
LAW_FAULTS = [
    (phase_constant_off_by_one_root, PHASE_LAWS),
    (perm_depends_on_a, ALL_LAWS),
    (perturbed_arrays, ALL_LAWS),
    (linear_phase_shift, {"fourier_maps_labels"}),
    (phase_off_by_one, ALL_LAWS),
    (swapped_add_entries, ALL_LAWS),
    (digit_phase_shift, PHASE_LAWS),
    (neg_is_the_identity, {"adjoint_negates_label", "fourier_maps_labels"}),
    (zero_trace, {"orthogonality_under_trace"}),
]
LAW_FAULT_IDS = ["constant", "perm_row", "phase_offset", "linear_shift", "trace_entry", "add_row",
                 "digit_shift", "neg_identity", "zero_trace"]


@pytest.mark.parametrize("fault,failing", LAW_FAULTS, ids=LAW_FAULT_IDS)
@pytest.mark.parametrize("pe", [(5, 1), (3, 2), (5, 2), (3, 3)], ids=str)
def test_label_law_faults_give_the_gather_verdicts(pe, fault, failing, monkeypatch):
    field = GFField(*pe, make_field(*pe).modulus)  # a field object no cache has seen
    fault(monkeypatch, field)
    got = derived_label_laws(field)
    assert got == gather_label_laws(field, label_grid(field))
    assert {name for name in LAW_NAMES if not got[name]} == failing


@pytest.mark.parametrize("fault,witness", [
    (perm_depends_on_a, "certificate=(1, 0, 0)"),
    (swapped_add_entries, "premise=add[1, 0]"),
    (phase_off_by_one, "premise=trace_form[1, 8]"),
], ids=["perm_row", "add_row", "trace_entry"])
def test_label_law_items_carry_the_witness(fault, witness, monkeypatch):
    # a failed certificate or premise fails all four items, each detail
    # naming it; the composition law also counts the pairs it covers
    field = GFField(3, 2, make_field(3, 2).modulus)
    fault(monkeypatch, field)
    items = {i.name: i for i in heisenberg_suite(field).items}
    assert {items[name].status for name in LAW_NAMES} == {"fail"}
    assert [items[name].detail for name in LAW_NAMES] == [f"pairs=6561, {witness}"] + [
        witness] * 3


# -- the Frobenius label items read from the constants -------------------------
#
# ``label_laws`` reads G D(a, b) = D(f a, f b) G and the subfield items as
# relations on the tables and the constants, gated on the certificate only.
# The reference is the suite's kernel they replaced: G^k D(rows) against
# D(target) G^k, member by member, per block of grid rows.

FROBENIUS_LAWS = ("frobenius_maps_labels", "subfield_labels_fixed_by_frobenius")


def kernel_frobenius_verdicts(field, grid):
    """The two Frobenius label items on a grid, by the kernel label_laws
    replaced: every power G^k, k < ell, on every label, and G^(d mod ell)
    on the labels of each subfield GF(p^d)."""
    q = field.order
    a_of, b_of = np.divmod(np.arange(q * q), q)

    def covariant(g, rows, target):
        return all((g @ grid[rows[s]]).matches(grid[target[s]] @ g).all()
                   for s in heisenberg.label_blocks(len(rows), q))

    g = frobenius.frobenius_monomial(field)
    powers = [g ** k for k in range(field.ell)]
    fixed = True
    for d in field.divisors():
        sub = np.asarray(field.subfield_indices(d))
        rows = (sub[:, None] * q + sub).ravel()
        fixed = covariant(powers[d % field.ell], rows, rows) and fixed
    return {"frobenius_maps_labels": all(
                covariant(gk, np.arange(q * q), gk.perm[a_of] * q + gk.perm[b_of])
                for gk in powers),
            "subfield_labels_fixed_by_frobenius": fixed}


def swapped(table, i, j):
    out = table.copy()
    out[i], out[j] = table[j], table[i]
    return out


def bumped(table, at, modulus):
    out = table.copy()
    out[at] = (out[at] + 1) % modulus
    return out


# planted table faults, as the arrays each replaces in field.tables()
FROBENIUS_TABLE_FAULTS = {
    "none": lambda f, t: {},
    "frob_swap_low": lambda f, t: {"frob": swapped(t.frob, 0, 1)},
    "frob_swap_high": lambda f, t: {"frob": swapped(t.frob, f.order - 2, f.order - 1)},
    "frob_identity": lambda f, t: {"frob": np.arange(f.order)},
    "frob_not_injective": lambda f, t: {"frob": np.append(t.frob[:-1], t.frob[0])},
    "trace_low": lambda f, t: {"trace": bumped(t.trace, 1, f.p)},
    "trace_high": lambda f, t: {"trace": bumped(t.trace, f.order - 1, f.p)},
    "mul_low": lambda f, t: {"mul": bumped(t.mul, (1, f.order - 1), f.order)},
    "mul_high": lambda f, t: {"mul": bumped(t.mul, (f.order - 1, f.order - 1), f.order)},
    "add_low": lambda f, t: {"add": swapped(t.add, (1, 0), (1, 1))},
    "add_high": lambda f, t: {"add": bumped(t.add, (f.order - 1, f.order - 1), f.order)},
}


@pytest.mark.parametrize("coeff", [None, 1])
@pytest.mark.parametrize("fault", FROBENIUS_TABLE_FAULTS)
@pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)], ids=str)
def test_frobenius_relations_match_the_kernel(pe, fault, coeff, monkeypatch):
    field = GFField(*pe, make_field(*pe).modulus)  # a field object no cache has seen
    plant_tables(monkeypatch, field, **FROBENIUS_TABLE_FAULTS[fault](field, field.tables()))
    got = derived_label_laws(field, coeff, FROBENIUS_LAWS)
    assert got == kernel_frobenius_verdicts(field, label_grid(field, coeff))
    if fault == "none" or field.ell == 1:
        assert all(got.values())


def invariant_constants_over_a_wrong_trace(monkeypatch, field):
    """The trace of the last element off by one in the tables, while every
    D(a, b) keeps the phase constant of the true trace: the offsets follow
    the table, so the certificate holds, and the constants stay invariant
    under Frobenius, so only tr[f a, f m] - tr[a, m] varying in m shows the
    fault."""
    true = field.tables()
    phase_off_by_one(monkeypatch, field)
    original = heisenberg.displacement_monomial
    step = ring_for(field).order // field.p

    def wrong(field_, alpha, beta, phase_coeff=None, d=None):
        mono = original(field_, alpha, beta, phase_coeff, d)
        if d is not None:  # the fault is the field's; subfield blocks stay as built
            return mono
        x = true.mul[field_.two_inverse, true.mul[field_.indices(alpha), field_.indices(beta)]]
        shift = (true.trace[x] - field_.tables().trace[x]) * step
        return Monomial(mono.ring, mono.perm, mono.phase + np.asarray(shift)[..., None])

    monkeypatch.setattr(heisenberg, "displacement_monomial", wrong)


@pytest.mark.parametrize("fault,failing", [
    (digit_phase_shift, {"frobenius_maps_labels"}),
    (invariant_constants_over_a_wrong_trace, set(FROBENIUS_LAWS)),
], ids=["digit_shift", "invariant_constants"])
@pytest.mark.parametrize("pe", [(3, 2), (5, 2), (3, 3), (7, 2)], ids=str)
def test_frobenius_relations_under_certified_displacement_faults(pe, fault, failing, monkeypatch):
    # faults that keep the certificate: a digit-wise phase shift, which G
    # moves, fails only the relation on the constants C[a, b] - C[f a, f b]
    # (C cancels on the subfields); constants kept invariant over a wrong
    # trace fail only the m-dependence of delta(a, m)
    field = GFField(*pe, make_field(*pe).modulus)
    fault(monkeypatch, field)
    assert certificate(field) is None
    got = derived_label_laws(field, None, FROBENIUS_LAWS)
    assert got == kernel_frobenius_verdicts(field, label_grid(field))
    assert {name for name in FROBENIUS_LAWS if not got[name]} == failing


@pytest.mark.parametrize("fault,witness", CERTIFICATE_FAULTS, ids=["phase_offset", "perm_row"])
def test_failed_certificate_fails_the_frobenius_items(fault, witness, monkeypatch):
    # the items read D as the certificate states it, so a failed certificate
    # fails them with its witness, although the kernel passes on either
    # faulty grid: G commutes with the phase offset of D(0, 1) and with the
    # shift D(1, 0) takes from D(1, 1)
    field = GFField(3, 2, make_field(3, 2).modulus)
    fault(monkeypatch, field)
    assert all(kernel_frobenius_verdicts(field, label_grid(field)).values())
    items = {i.name: i for i in heisenberg_suite(field).items}
    assert [(items[name].status, items[name].detail) for name in FROBENIUS_LAWS] == [
        ("fail", f"certificate={witness}")] * 2


def test_frobenius_items_carry_no_premise_witness(monkeypatch):
    # the digit premises gate the four other laws only: under a swapped pair
    # of add entries those fail naming the premise, while both Frobenius
    # items pass, as the kernel does, with no detail
    field = GFField(3, 2, make_field(3, 2).modulus)
    swapped_add_entries(monkeypatch, field)
    assert all(kernel_frobenius_verdicts(field, label_grid(field)).values())
    items = {i.name: i for i in heisenberg_suite(field).items}
    assert [(items[name].status, items[name].detail) for name in FROBENIUS_LAWS] == [
        ("pass", "")] * 2
    assert [(items[name].status, items[name].detail) for name in LAW_NAMES] == [
        ("fail", "pairs=6561, premise=add[1, 0]")] + [("fail", "premise=add[1, 0]")] * 3


def test_label_grid_peak_below_three_times_its_arrays():
    # the reference grid the kernels above read: each label block is written
    # into the grid's two int32 arrays, so the build never holds the int64
    # arrays of one whole-grid gather (five times the grid's bytes)
    field = make_field(7, 2)
    label_grid(field)  # fill the field's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid = label_grid(field)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grid == heisenberg.displacement_monomial(field, *np.divmod(np.arange(49 * 49), 49))
    assert grid.perm.dtype == grid.phase.dtype == np.int32
    assert peak <= 3 * (grid.perm.nbytes + grid.phase.nbytes), peak


def test_grid_checks_peak_below_one_megabyte():
    # the exhaustive checks that set the verify-grid peak, on GF(9), each run
    # once to fill the caches the suite fills, then traced
    field = make_field(3, 2)
    q = field.order
    constants = heisenberg.grid_certificate(field)[1]
    xs, ys = np.repeat(np.arange(q), q), np.tile(np.arange(q), q)
    group = sp.enumerate_group(field)
    checks = {
        "grid_certificate": lambda: heisenberg.grid_certificate(field)[0] is None,
        "label_laws": lambda: all(heisenberg.label_laws(field, constants)[name]
                                  for name in LAW_NAMES + FROBENIUS_LAWS),
        "conjugated_shear_additive_law": lambda: sp.shear_grid_laws(
            field, xs, ys, range(q))[0].all(),
        "action_law_exhaustive": lambda: sp.action_sweep(
            field, group, field.p ** np.arange(field.ell)).all(),
    }
    for name, check in checks.items():
        assert check(), name
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert check(), name
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000, (name, peak)


# -- the marginal line relations against the line sums they replaced -----------
#
# ``heisenberg.marginals_in_frame`` reads each line of labels off the
# certified phase constants and each target off its frame's columns, one
# integer relation per line.  The reference is the kernel it replaced,
# ``ref_marginals_in_frame``: the line sums scattered by ``label_sum_stack``
# against the rank-one targets of ``outer_stack``.  The verdicts must agree
# line for line, in every frame and under every planted fault that keeps
# the certificate; where the certificate fails, the relations fail every
# line and the sums only the lines through the planted label.

MARGINAL_FIELDS = STACK_FIELDS + [(7, 2), (5, 3)]


def marginal_rows(field):
    """The identity frame (None), marginal_elements, and an element with
    t = 0, whose alpha lines are diagonal away from the identity."""
    return [None, *marginal_elements(field), element_row(field, 2 % field.order, 1, 0)]


def frame_verdicts(field, row, frame_fault=None):
    """The line relations' and the line sums' per-line verdicts on the
    images of marginal_labels under the element at ``row``, in its frame S
    with ``frame_fault`` applied to S; row None: the plain labels in the
    identity frame."""
    labels, frame = heisenberg.marginal_labels(field), None
    if row is not None:
        labels = sp.label_images(field, row, *labels)
        frame = sp.synthesize(field, row)
        if frame_fault is not None:
            frame = frame_fault(frame)
    return (heisenberg.marginals_in_frame(field, *labels, frame, certified_grid(field)),
            ref_marginals_in_frame(field, *labels, frame))


@pytest.mark.parametrize("pe", MARGINAL_FIELDS, ids=str)
def test_line_relations_match_the_line_sums(pe):
    # at q <= 9 on every element of Sp(2, GF(q)): both charts, and both kinds
    # of diagonal line, alpha lines where t = 0 and beta lines where r = 0
    field = make_field(*pe)
    rows = [None, *sp.enumerate_group(field)] if field.order <= 9 else marginal_rows(field)
    for row in rows:
        new, ref = frame_verdicts(field, row)
        assert new.all() and np.array_equal(new, ref), row


def half_trace_coefficient(c):
    """A fault: every D(a, b) built with the half-trace coefficient c in place
    of 2^-1, so the certificate holds and the constants change with c (no
    change where c = 2^-1 mod p)."""
    def plant(monkeypatch, field):
        original = heisenberg.displacement_monomial
        monkeypatch.setattr(heisenberg, "displacement_monomial",
                            lambda f, a, b, phase_coeff=None, d=None: original(f, a, b, c, d))
    plant.coeff = c
    return plant


def shift_one_image_alpha(monkeypatch, field):
    """The image of label (1, 0) moves to (u + 1, t), on both paths.  Where
    t = 0 its beta line stays free, and only the sum's diagonal (i, i), off
    the first row and column, changes: only Phi's additivity sees it."""
    original, add = sp.label_images, field.tables().add

    def shifted(field_, row, alpha, beta):
        a, b = original(field_, row, alpha, beta)
        hit = (np.asarray(alpha) == 1) & (np.asarray(beta) == 0)
        return np.where(hit, add[a, 1], a), b

    monkeypatch.setattr(sp, "label_images", shifted)


MARGINAL_FAULTS = [half_trace_coefficient(1), half_trace_coefficient(2),
                   phase_constant_off_by_one_root, linear_phase_shift, phase_off_by_one,
                   shift_one_image_label, shift_one_image_alpha, swap_unitary,
                   swap_fourier_columns]
MARGINAL_FAULT_IDS = ["half_trace_1", "half_trace_2", "constant", "linear_shift", "trace_entry",
                      "shifted_image_label", "shifted_image_alpha", "swapped_unitary",
                      "swapped_fourier_columns"]


@pytest.mark.parametrize("fault", MARGINAL_FAULTS, ids=MARGINAL_FAULT_IDS)
@pytest.mark.parametrize("pe", STACK_FIELDS + [(7, 2)], ids=str)
def test_line_relations_match_the_line_sums_under_faults(pe, fault, monkeypatch):
    field = GFField(*pe, make_field(*pe).modulus)  # a field object no cache has seen
    fault(monkeypatch, field)
    assert certified_grid(field)[0] is None
    seen = False
    for row in marginal_rows(field):
        new, ref = frame_verdicts(field, row)
        assert np.array_equal(new, ref), row
        seen |= not new.all()
    assert seen is (getattr(fault, "coeff", None) != field.two_inverse)


def rotated_entry(frame):
    """The first nonzero entry of column 1 of the frame times zeta."""
    rows = [list(row) for row in frame.rows]
    i = next(i for i, row in enumerate(rows) if row[1])
    rows[i][1] = rows[i][1].times_root(1)
    return OperatorMatrix(frame.dim, EXACT, frame.ring, rows)


def scaled_column(frame):
    """Column 1 of the frame times zeta."""
    rows = [[x.times_root(1) if j == 1 else x for j, x in enumerate(row)] for row in frame.rows]
    return OperatorMatrix(frame.dim, EXACT, frame.ring, rows)


def swapped_columns(frame):
    """Columns 1 and 2 of the frame swapped."""
    rows = [[row[{1: 2, 2: 1}.get(j, j)] for j in range(len(row))] for row in frame.rows]
    return OperatorMatrix(frame.dim, EXACT, frame.ring, rows)


@pytest.mark.parametrize("frame_fault", [rotated_entry, scaled_column, swapped_columns],
                         ids=["rotated_entry", "scaled_column", "swapped_columns"])
@pytest.mark.parametrize("pe", STACK_FIELDS + [(7, 2)], ids=str)
def test_line_relations_match_the_line_sums_in_a_faulted_frame(pe, frame_fault):
    field = make_field(*pe)
    for row in marginal_rows(field)[1:]:
        new, ref = frame_verdicts(field, row, frame_fault)
        assert np.array_equal(new, ref) and not new.all(), row


@pytest.mark.parametrize("fault,witness", CERTIFICATE_FAULTS,
                         ids=["phase_offset", "perm_row"])
@pytest.mark.parametrize("pe", [(5, 1), (3, 2)], ids=str)
def test_a_failing_certificate_fails_every_line(pe, fault, witness, monkeypatch):
    # the one place the verdicts differ: the sums fail the lines through the
    # planted label, the relations fail every line, and the items carry the
    # certificate's witness
    field = make_field(*pe)
    fault(monkeypatch, field)
    assert certified_grid(field)[0] == witness
    for row in marginal_rows(field):
        new, ref = frame_verdicts(field, row)
        assert not new.any() and ref.any() and not ref.all(), row
    detail = f"certificate={witness}"
    items = {i.name: i for i in heisenberg_suite(field).items}
    assert [(items[name].status, items[name].detail)
            for name in ("marginal_alpha_sums", "marginal_beta_sums")] == [("fail", detail)] * 2
    item = next(i for i in symplectic_suite(field).items if i.name == "transformed_marginals")
    assert (item.status, item.detail) == ("fail", detail)
