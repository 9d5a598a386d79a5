"""Verification suites: every operator identity, checked bit-exactly.

Each suite returns a :class:`SuiteReport` whose items carry a descriptive
name and a pass/fail/skip status.  The exact suites assert equality of
canonical scalars; the float suite re-runs the headline identities on the
embedded complex numpy arrays against a Frobenius-norm tolerance.

Suites that need the inverse of 2 (displacements, symplectic) report a
single skip item in characteristic 2 instead of failing.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fourier as fr
from . import frobenius as fb
from . import heisenberg as hb
from . import hilbert as hs
from . import symplectic as sp
from .gf import GFField
from .linalg import Monomial, OperatorMatrix, StateVector, inner_product, outer

DEFAULT_GRID = ((3, 1), (3, 2), (5, 1), (3, 3), (5, 2), (7, 1))
SUITE_NAMES = ("gf", "fourier", "frobenius", "heisenberg", "symplectic")


@dataclass
class VerifyConfig:
    tolerance: float = 1e-9
    exhaustive: bool = False
    seed: int = 12345
    # Override for the displacement half-phase coefficient; verification
    # suites must fail when this is not the true inverse of 2 (negative
    # control against vacuous passes).
    displacement_phase_coeff: int | None = None


@dataclass
class CheckItem:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def to_json(self):
        out = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    suite: str
    field_desc: str
    items: list = dc_field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append(CheckItem(name, "pass" if ok else "fail", detail))

    def skip(self, name: str, detail: str = ""):
        self.items.append(CheckItem(name, "skip", detail))

    @property
    def passed(self) -> bool:
        return all(item.status != "fail" for item in self.items)

    def to_json(self):
        return {
            "suite": self.suite,
            "field": self.field_desc,
            "passed": self.passed,
            "items": [item.to_json() for item in self.items],
        }


def _desc(field: GFField) -> str:
    return f"GF({field.p}^{field.ell}) mod {','.join(map(str, field.modulus))}"


def _random_entries(field, rng, count: int):
    """count random scalars as a (count, 1) stack.  Each entry has ``degree``
    coefficients in [-2, 2] (all zero becomes 1), a scale exponent from
    (0, 0, 1, 2) and a denominator from (1, 1, 2, 3), read from the bytes
    of one ``rng.randbytes``: a coefficient is byte % 5 - 2, bytes from 250
    up redrawn; an exponent or a denominator picks by byte % 4.  The
    entries of each (E, Q) pair form one part, and the stack aligns the
    parts at once."""
    ring = hs.ring_for(field)
    size = count * ring.degree
    raw = np.frombuffer(bytearray(rng.randbytes(size + 2 * count)), dtype=np.uint8)
    coeffs, picks = raw[:size], raw[size:].reshape(2, count) % 4
    while (redraw := coeffs >= 250).any():
        coeffs[redraw] = np.frombuffer(rng.randbytes(int(redraw.sum())), dtype=np.uint8)
    vecs = (coeffs % 5).astype(np.int64).reshape(count, 1, -1) - 2
    vecs[~vecs.any(axis=(1, 2)), 0, 0] = 1
    kind = np.array((0, 0, 1, 2))[picks[0]] * 4 + np.array((1, 1, 2, 3))[picks[1]]
    kinds = sorted(set(kind.tolist()))
    masks = [kind == k for k in kinds]
    data, e, den = ring.stack([(vecs[hit], k // 4, k % 4) for hit, k in zip(masks, kinds)])
    out = np.empty_like(data)
    for hit, part in zip(masks, np.split(data, np.cumsum([hit.sum() for hit in masks])[:-1])):
        out[hit] = part
    return out, e, den


def _random_matrix(field, rng) -> OperatorMatrix:
    q = field.order
    data, e, den = _random_entries(field, rng, q * q)
    return OperatorMatrix.from_packed(hs.ring_for(field), (data.reshape(q, q, -1), e, den))


def _random_state(field, rng) -> StateVector:
    return StateVector.from_packed(hs.ring_for(field), _random_entries(field, rng, field.order))


def _random_rank_one(field, rng) -> OperatorMatrix:
    # |u><v| with nonzero trace (v, u)
    while True:
        u, v = _random_state(field, rng), _random_state(field, rng)
        if not inner_product(v, u).is_zero:
            return outer(u, v)


# ---------------------------------------------------------------------------
# field suite


def gf_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    """The field laws, each one comparison on the index tables over every
    element or pair of elements, at every q."""
    rep = SuiteReport("gf", _desc(field))
    q, p, ell, t = field.order, field.p, field.ell, field.tables()
    idx = np.arange(q)
    # images[k] = m^(p^k), the frob table iterated k times, for k <= ell
    images = [idx]
    for _ in range(ell):
        images.append(t.frob[images[-1]])
    rep.add("frobenius_order", np.array_equal(images[ell], idx))

    rep.add("frobenius_is_ring_map",
            all(np.array_equal(t.frob[op], op[t.frob[:, None], t.frob]) for op in (t.add, t.mul)))
    rep.add("trace_frobenius_invariant", np.array_equal(t.trace, t.trace[t.frob]))

    subs = {d: np.asarray(field.subfield_indices(d)) for d in field.divisors()}
    rep.add("trace_subfield_ratio", all(np.array_equal(
        t.trace[sub], (ell // d) * field.subfield_traces(d)[sub] % p) for d, sub in subs.items()))
    rep.add("subfield_trace_not_identically_zero",
            all(field.subfield_traces(d)[sub].any() for d, sub in subs.items()))

    gram = np.array(field.dual_basis.gram)
    gram_inv = np.array(field.dual_basis.gram_inv)
    rep.add("gram_times_inverse_is_identity",
            np.array_equal(gram @ gram_inv % p, np.eye(ell)))

    # eps^k is the power-basis element of index p^k (eps = 1 when ell = 1)
    basis = p ** np.arange(ell)
    dual = np.array([x.index for x in field.dual_basis.elements])
    rep.add("dual_basis_defining_property",
            np.array_equal(t.trace[t.mul[basis[:, None], dual]], np.eye(ell)))

    # Tr(a b) against the four bilinear forms of the (standard, dual)
    # component vectors of a and b, as in fourier.component_factorization_check
    std, dual_c, tr = idx[:, None] // basis % p, t.trace[t.mul[:, basis]], t.trace[t.mul]
    forms = ((std, dual_c.T), (dual_c, std.T), (std @ gram, std.T), (dual_c @ gram_inv, dual_c.T))
    rep.add("trace_bilinear_four_forms",
            all(np.array_equal(a @ b % p, tr) for a, b in forms))

    def closed(sub):
        inside = np.isin(idx, sub)
        return inside[t.add[np.ix_(sub, sub)]].all() and inside[t.mul[np.ix_(sub, sub)]].all()
    rep.add("subfields_closed", all(closed(sub) for sub in subs.values()))

    rep.add("multiplicative_inverses", (t.mul[idx[1:], t.inv[idx[1:]]] == 1).all())

    ok = True
    for d, sub in subs.items():
        exps = field.galois_group_exponents(d)
        ok = ok and len(exps) == ell // d and exps[-1] == ell and all(
            0 < k <= ell and np.array_equal(images[k][sub], sub) for k in exps)
    rep.add("galois_groups_fix_subfields", ok)
    return rep


# ---------------------------------------------------------------------------
# fourier and frobenius suites


def _spectral_items(rep: SuiteReport, spec, u: OperatorMatrix):
    """The projectors P_r of U^n = 1 resolve the identity, are orthogonal
    idempotents and rebuild U = sum_r zeta^(r N/n) P_r."""
    projs, ring = spec.projectors, u.ring
    total = projs[0]
    for pr in projs[1:]:
        total = total + pr
    rep.add("projectors_resolve_identity", total.equals(OperatorMatrix.identity(ring, u.dim)))
    zero = OperatorMatrix.zeros(ring, u.dim)
    rep.add("projectors_orthogonal_idempotent", all(
        (pr @ ps).equals(pr if r == s else zero)
        for r, pr in enumerate(projs) for s, ps in enumerate(projs)))
    recon = projs[0]
    for r in range(1, len(projs)):
        recon = recon + projs[r].scaled(ring.root(r * ring.order // len(projs)))
    rep.add("eigen_reconstruction", recon.equals(u))


def _ranks_item(rep: SuiteReport, spec, q: int):
    ranks = spec.ranks
    rep.add("projector_ranks_partition",
            None not in ranks and sum(ranks) == q and all(r >= 0 for r in ranks),
            detail=f"ranks={ranks}")


def fourier_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rng = random.Random(config.seed + 1)
    rep = SuiteReport("fourier", _desc(field))
    ring = hs.ring_for(field)
    q = field.order
    f = fr.fourier_matrix(field)
    ident = OperatorMatrix.identity(ring, q)

    rep.add("unitary", (f @ f.adjoint()).equals(ident))
    f2 = f @ f
    rep.add("fourth_power_is_identity", (f2 @ f2).equals(ident))

    tb = field.tables()
    rep.add("entries_frobenius_symmetric",
            np.array_equal(tb.trace[tb.mul], tb.trace[tb.mul[tb.frob[:, None], tb.frob]]))

    spec = fr.fourier_spectrum(field)
    _spectral_items(rep, spec, f)
    rep.add("eigen_equation",
            (f @ spec.projectors[1]).equals(spec.projectors[1].scaled(ring.imag_unit())))
    _ranks_item(rep, spec, q)

    chi = _random_state(field, rng)
    out = chi
    for _ in range(4):
        out = f.apply(out)
    rep.add("transform_period_four", out.equals(chi))
    rep.add("parseval",
            inner_product(f.apply(chi), f.apply(chi)) == inner_product(chi, chi))

    if field.ell >= 2:
        fac = fr.component_factorization_check(field)
        rep.add("component_factorization",
                fac["factorization_dual_std"] and fac["factorization_std_dual"])
        rep.add("naive_tensor_transform_differs", fac["naive_differs"],
                detail=f"witness={fac['witness']}")
    for d in field.divisors():
        sub_f = fr.fourier_matrix(field, d)
        block = OperatorMatrix.identity(ring, sub_f.dim)
        rep.add(f"subfield_unitary[d={d}]", (sub_f @ sub_f.adjoint()).equals(block))
        sf2 = sub_f @ sub_f
        rep.add(f"subfield_fourth_power[d={d}]", (sf2 @ sf2).equals(block))
        rel = fr.subfield_fourier_power_relation_check(field, d)
        rep.add(f"subfield_power_relation[d={d}]", rel["holds"],
                detail=f"power={rel['power']}")
    return rep


def frobenius_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rep = SuiteReport("frobenius", _desc(field))
    ring = hs.ring_for(field)
    q, ell = field.order, field.ell
    g = fb.frobenius_monomial(field)
    ident = Monomial.identity(ring, q)

    rep.add("order_divides_ell", (g ** ell) == ident)
    rep.add("unitary", (g @ g.adjoint()) == ident)
    rep.add("is_permutation", sorted(g.perm) == list(range(q))
            and all(ph == 0 for ph in g.phase))

    f = fr.fourier_matrix(field)
    comm = fb.frobenius_fourier_commutation_check(field)
    rep.add("commutes_with_fourier", comm["commutes_with_fourier"])
    rep.add("commutes_with_fourier_projectors", comm["commutes_with_projectors"])

    ok = True
    for d in field.divisors():
        pi = hs.subspace_projector(field, d)
        if not (g @ pi).equals(pi @ g):
            ok = False
    rep.add("commutes_with_subspace_projectors", ok)

    ok = True
    for d in field.divisors():
        members = fb.galois_group_H(field, d)
        if len(members.perm) != ell // d:
            ok = False
        pi = hs.subspace_projector(field, d)
        for k in range(len(members.perm)):
            if not (members[k] @ pi).equals(pi):
                ok = False
    rep.add("galois_groups_fix_subspaces", ok)

    spec = fb.frobenius_spectrum(field)
    _spectral_items(rep, spec, g.to_matrix())
    ok = all((f @ pr).equals(pr @ f) for pr in spec.projectors)
    rep.add("projectors_commute_with_fourier", ok)

    ok = True
    for d in field.divisors():
        cont = fb.subfield_containment_check(field, d)
        if not (cont["left"] and cont["right"]):
            ok = False
    rep.add("subspace_inside_combined_eigenspace", ok)

    _ranks_item(rep, spec, q)
    return rep


# ---------------------------------------------------------------------------
# heisenberg suite


def heisenberg_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rng = random.Random(config.seed + 2)
    rep = SuiteReport("heisenberg", _desc(field))
    if field.p == 2:
        rep.skip("all", "characteristic 2: displacement phases undefined")
        return rep
    ring, q = hs.ring_for(field), field.order
    coeff = config.displacement_phase_coeff
    # the label laws and sums read D as the certificate states it
    cert, constants = hb.grid_certificate(field, coeff)
    detail = "" if cert is None else f"certificate={cert}"
    laws = hb.label_laws(field, constants)
    # the digit premises gate the first four laws, not the Frobenius ones
    witness = detail or (f"premise={laws['premise']}" if laws["premise"] else "")

    def law(name, count="", gate=witness):
        rep.add(name, cert is None and laws[name], ", ".join(filter(None, (count, gate))))

    law("composition_law", f"pairs={q ** 4}")
    law("adjoint_negates_label")
    law("fourier_maps_labels")
    law("frobenius_maps_labels", gate=detail)
    law("subfield_labels_fixed_by_frobenius", gate=detail)
    law("orthogonality_under_trace")

    if coeff is None:
        thetas = [_random_matrix(field, rng) for _ in range(5)]
        rep.add("weyl_expansion_round_trip", cert is None and all(
            hb.weyl_reconstruct(field, hb.weyl_expand(field, theta)).equals(theta)
            for theta in thetas), detail)

        for name, theta in (("identity", OperatorMatrix.identity(ring, q)),
                            ("point_projector", hs.point_projector(field, 0)),
                            ("random_rank_one", _random_rank_one(field, rng))):
            rep.add(f"resolution_of_identity[theta={name}]",
                    hb.resolution_of_identity_check(field, theta, cert)["holds"], detail)
        chi = _random_state(field, rng)
        psi = hs.phi_basis(field, 0)
        rep.add("overcomplete_expansion",
                hb.overcomplete_expansion_check(field, psi, chi, cert)["holds"], detail)

        marg = hb.marginal_projectors(field, (cert, constants))
        rep.add("marginal_alpha_sums", marg["alpha_sums"], detail)
        rep.add("marginal_beta_sums", marg["beta_sums"], detail)

        ok = True
        for d in field.divisors():
            sub = np.asarray(field.subfield_indices(d))
            a, b = np.repeat(sub, len(sub)), np.tile(sub, len(sub))
            ok = all(hb.subfield_power_relation_check(field, d, a[s], b[s])["holds"]
                     for s in hb.label_blocks(len(a), q)) and ok
        rep.add("subfield_displacement_power_relation", ok)

        rep.add("subfield_generator_fourier_intertwining", all(
            all(hb.subfield_fourier_intertwining_check(field, d).values())
            for d in field.divisors()))

    if field.ell >= 2:
        z = hb.displacement_monomial(field, field.generator.index, 0, coeff)  # Z^eps
        g = fb.frobenius_monomial(field)
        rep.add("frobenius_not_commuting_with_generator_phase", not (g @ z).matches(z @ g))
    if hb.is_gf9_fixture(field):
        ex = hb.z_spectrum_example(field)
        rep.add("spectrum_example",
                ex["z"]["decomposition"] and ex["z_eps"]["decomposition"]
                and ex["families_differ"]
                and ex["z"]["ranks"] == (3, 3, 3) and ex["z_eps"]["ranks"] == (3, 3, 3))
    return rep


# ---------------------------------------------------------------------------
# symplectic suite


def _row_text(field: GFField, row) -> str:
    return "(" + ", ".join(str(field.element(x)) for x in row) + ")"


def _generator_laws(rep: SuiteReport, field: GFField, rng):
    """The group laws of the three generator subgroups.

    The scaling and diagonal-shear laws compose the families of the
    generators of every field element, members picked by the pair index
    arrays; the conjugated-shear laws are one batched exact product
    (:func:`symplectic.shear_grid_laws`).  Every pair is checked at
    q <= 9; above that, drawn pairs (40 per monomial law, 6 for the
    conjugated shear) and the shears 0, 1 and one drawn element.
    """
    q, t = field.order, field.tables()

    def pairs(values, count):
        if q <= 9:
            return np.repeat(values, len(values)), np.tile(values, len(values))
        return np.array([(rng.choice(values), rng.choice(values))
                         for _ in range(count)]).reshape(-1, 2).T

    scale = sp.generator_scaling(field, np.arange(1, q))  # member x - 1
    xs, ys = pairs(range(1, q), 40)
    rep.add("scaling_subgroup_law",
            (scale[xs - 1] @ scale[ys - 1]).matches(scale[t.mul[xs, ys] - 1]).all())

    shear = sp.generator_shear_z(field, np.arange(q))
    xs, ys = pairs(range(q), 40)
    rep.add("diagonal_shear_additive_law",
            (shear[xs] @ shear[ys]).matches(shear[t.add[xs, ys]]).all())
    rep.add("diagonal_shear_char_power_is_identity",
            (shear ** field.p).matches(Monomial.identity(hs.ring_for(field), q)).all())

    check_xis = range(q) if q <= 9 else [0, 1, rng.choice(range(q))]
    rep.add("conjugated_shear_matches_element_sum",
            all(sp.generator_shear_x(field, x).equals(sp.shear_x_closed_form(field, x))
                for x in check_xis))
    additive, unitary = sp.shear_grid_laws(field, *pairs(range(q), 6), check_xis)
    rep.add("conjugated_shear_additive_law", bool(additive.all()))
    rep.add("conjugated_shear_unitary", bool(unitary.all()))


def symplectic_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    config = config or VerifyConfig()
    rng = random.Random(config.seed + 3)
    rep = SuiteReport("symplectic", _desc(field))
    if field.p == 2:
        rep.skip("all", "characteristic 2: quadratic phases undefined")
        return rep
    ring = hs.ring_for(field)
    q = field.order
    _generator_laws(rep, field, rng)

    nonzero_a = range(1, q) if q <= 27 else [rng.choice(range(1, q)) for _ in range(10)]
    gauss = [sp.gauss_sum(field, a) for a in nonzero_a]
    rep.add("gauss_sum_magnitude", all(g * g.conj() == ring.from_int(q) for g in gauss))
    rep.add("gauss_sum_at_zero", sp.gauss_sum(field, 0) == ring.from_int(q))

    # action-law labels: the power basis {eps^k : k < ell}, which spans
    # GF(p^ell) over Z_p ({1, eps} does so only for ell <= 2)
    gen_labels = field.p ** np.arange(field.ell)
    # the action law runs on every element at q <= 9, or at q <= 27 with
    # --exhaustive, and on drawn elements otherwise; the group is enumerated
    # on every field, for its order count and the closed-form draws
    group = sp.enumerate_group(field)
    # distinct codes of the determinant-1 rows, counted on the sorted codes
    codes = np.sort(group[sp.determinant(field, group) == 1] @ q ** np.arange(3, -1, -1))
    count = int(codes.size and 1 + np.count_nonzero(codes[1:] != codes[:-1]))
    ok = count == len(group) == q * (q * q - 1)
    if q <= 9 or (config.exhaustive and q <= 27):
        rep.add("group_order_count", ok, detail=f"count={count}")
        name, elements = "action_law_exhaustive", group
    else:
        rep.add("group_order_count", ok)
        name = "action_law_sampled"
        elements = np.vstack([sp.sample_group(field, rng, 8), sp.fourier_params(field)])
    verdicts = sp.action_sweep(field, elements, gen_labels)
    failing = np.flatnonzero(~verdicts.all(axis=1))
    detail = f"elements={len(elements)}"
    if len(failing):
        row, key = elements[failing[0]], sp.ACTION_KEYS[verdicts[failing[0]].argmin()]
        detail += f", witness={_row_text(field, row)}:{key}"
    rep.add(name, not len(failing), detail=detail)

    # conjugation action is a homomorphism on labels: the product of six
    # pairs of elements (a column each) has r u - s t = 1 and maps the labels
    # (a, b), a in {1, eps}, b in {0, 1}, as the two factors in turn
    add, mul = field.tables().add, field.tables().mul
    g1, g2 = np.array([(rng.choice(sp.sample_group(field, rng, 1)),
                        rng.choice(sp.sample_group(field, rng, 1)))
                       for _ in range(6)]).transpose(1, 2, 0)
    (r1, s1, t1, u1), (r2, s2, t2, u2) = g1, g2
    prod = np.array([add[mul[t1, s2], mul[r1, r2]], add[mul[u1, s2], mul[s1, r2]],
                     add[mul[t1, u2], mul[r1, t2]], add[mul[u1, u2], mul[s1, t2]]])
    eps = field.generator.index
    a, b = np.array([[1, 1, eps, eps], [0, 1, 0, 1]])[:, :, None]
    rep.add("label_action_homomorphism", bool((sp.determinant(field, prod.T) == 1).all())
            and np.array_equal(sp.label_images(field, prod, a, b),
                               sp.label_images(field, g1, *sp.label_images(field, g2, a, b))))

    # closed form vs synthesis
    valid = group[sp.closed_form_domain(field, group)]
    if len(valid) > 50:
        valid = valid[[rng.randrange(len(valid)) for _ in range(50)]]
    results = sp.closed_form_sweep(field, valid)
    bad = [row for row, res in zip(valid, results) if not res["proportional"]]
    detail = (f"triples={len(valid)}, phase_one={all(res['phase_is_one'] for res in results)}"
              + (f", witness={_row_text(field, bad[0][:3])}" if bad else ""))
    rep.add("closed_form_matches_synthesis", not bad, detail=detail)

    ok = all(sp.synthesize(field, row).is_unitary() for row in sp.sample_group(field, rng, 3))
    rep.add("synthesis_unitary", ok)

    ok = all(sp.frobenius_action_check(field, row)["covariant"]
             for row in sp.sample_group(field, rng, 2))
    res = sp.frobenius_action_check(field, sp.element_row(field, 1, 1, 2), subfield_d=1)
    rep.add("frobenius_covariance", ok and res["covariant"] and res["subfield_fixed"])

    # the identity, one drawn element and the GF(9) fixture's example
    tm_rows = [np.array([1, 0, 0, 1]), *sp.sample_group(field, rng, 1)]
    if hb.is_gf9_fixture(field):
        tm_rows.append(sp.element_row(field, 1, field.add_index(1, eps), eps))
    grid = hb.grid_certificate(field)
    ok, detail = grid[0] is None, "" if grid[0] is None else f"certificate={grid[0]}"
    for row in tm_rows if ok else []:
        res = sp.transformed_marginals(field, row, grid)
        if res["witness"] is not None:
            name, label = res["witness"]
            held = "beta" if name == "alpha_sums" else "alpha"
            ok, detail = False, (f"witness={_row_text(field, row)}:"
                                 f"{name}[{held}={field.element(label)}]")
            break
    rep.add("transformed_marginals", ok, detail=detail)

    if hb.is_gf9_fixture(field):
        wit = sp.non_factorization_witness(field)
        rep.add("non_factorization_witness",
                wit["not_tensor_product"] and wit["x_eps_is_identity_tensor_shift"]
                and wit["diag_image_matches"] and wit["diag_image_split"]
                and wit["diag_image_factor_pair"] == sp.GF9_DIAG_IMAGE_FACTORS)
    return rep


# ---------------------------------------------------------------------------
# float suite


def float_suite(field: GFField, config: VerifyConfig | None = None) -> SuiteReport:
    """Re-run the headline identities on embedded complex numpy arrays."""
    config = config or VerifyConfig()
    tol = config.tolerance
    rng = random.Random(config.seed + 4)
    rep = SuiteReport("float", _desc(field))
    q = field.order
    f = fr.fourier_matrix(field).embed()
    eye = np.eye(q, dtype=complex)

    rep.add("unitary", np.linalg.norm(f @ f.conj().T - eye) <= tol)
    rep.add("fourth_power_is_identity",
            np.linalg.norm(np.linalg.matrix_power(f, 4) - eye) <= tol)

    projs = [pr.embed() for pr in fr.fourier_spectrum(field).projectors]
    ok = np.linalg.norm(sum(projs) - eye) <= tol
    for r in range(4):
        for s in range(4):
            want = projs[r] if r == s else 0
            ok = ok and np.linalg.norm(projs[r] @ projs[s] - want) <= tol
    recon = projs[0] + 1j * projs[1] - projs[2] - 1j * projs[3]
    ok = ok and np.linalg.norm(recon - f) <= tol
    rep.add("fourier_spectral_algebra", ok)

    g = fb.frobenius_matrix(field).embed()
    rep.add("frobenius_order",
            np.linalg.norm(np.linalg.matrix_power(g, field.ell) - eye) <= tol)
    rep.add("frobenius_commutes_with_fourier",
            np.linalg.norm(f @ g - g @ f) <= tol)
    ok = True
    for d in field.divisors():
        pi = hs.subspace_projector(field, d).embed()
        if np.linalg.norm(g @ pi - pi @ g) > tol:
            ok = False
    rep.add("frobenius_commutes_with_subspace_projectors", ok)

    fprojs = [pr.embed() for pr in fb.frobenius_spectrum(field).projectors]
    root = np.exp(2j * np.pi / field.ell)
    recon = sum(fprojs[k] * root ** k for k in range(field.ell))
    rep.add("frobenius_spectral_algebra",
            np.linalg.norm(sum(fprojs) - eye) <= tol
            and np.linalg.norm(recon - g) <= tol)

    if field.p != 2:
        dfl = functools.cache(lambda a, b: hb.displacement(field, a, b).embed())
        half = field.two_inverse
        ok = True
        for _ in range(40):
            a1, b1, a2, b2 = (rng.randrange(q) for _ in range(4))
            ph = half * (field.trace_index(field.mul_index(a1, b2))
                         - field.trace_index(field.mul_index(b1, a2)))
            w = np.exp(2j * np.pi * (ph % field.p) / field.p)
            lhs = dfl(a1, b1) @ dfl(a2, b2)
            rhs = w * dfl(field.add_index(a1, a2), field.add_index(b1, b2))
            if np.linalg.norm(lhs - rhs) > tol:
                ok = False
        rep.add("displacement_composition", ok)

        ok = True
        for _ in range(20):
            a, b = rng.randrange(q), rng.randrange(q)
            lhs = f @ dfl(a, b) @ f.conj().T
            if np.linalg.norm(lhs - dfl(b, field.neg_index(a))) > tol:
                ok = False
        rep.add("fourier_maps_labels", ok)

        par = hb.parity_monomial(field).to_matrix().embed()
        t = field.tables()
        ok = True
        for idx in [0, 1, q - 1]:
            lhs = hb.marginal_sum_alpha(field, idx).embed()
            proj = hs.point_projector(field, t.neg[t.mul[half, idx]]).embed()
            if np.linalg.norm(lhs - par @ proj) > tol:
                ok = False
        rep.add("marginal_alpha_sums", ok)

        total = np.zeros((q, q), dtype=complex)
        q0 = hs.point_projector(field, 0).embed()
        for a in range(q):
            for b in range(q):
                d = dfl(a, b)
                total += d @ q0 @ d.conj().T
        rep.add("resolution_of_identity",
                np.linalg.norm(total / q - eye) <= tol)

        ok = True
        for row in sp.sample_group(field, rng, 2):
            s_op = sp.synthesize(field, row).embed()
            if np.linalg.norm(s_op @ s_op.conj().T - eye) > tol:
                ok = False
            za = hb.z_power(field, 1).embed()
            target = hb.displacement(field, int(row[3]), int(row[2])).embed()  # D(u, t)
            if np.linalg.norm(s_op @ za @ s_op.conj().T - target) > tol:
                ok = False
        rep.add("symplectic_action", ok)
    return rep


# ---------------------------------------------------------------------------
# runners


_SUITES = {
    "gf": gf_suite,
    "fourier": fourier_suite,
    "frobenius": frobenius_suite,
    "heisenberg": heisenberg_suite,
    "symplectic": symplectic_suite,
    "float": float_suite,
}


def run_suite(field: GFField, name: str, config: VerifyConfig | None = None) -> SuiteReport:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return _SUITES[name](field, config)


def run_all(field: GFField, config: VerifyConfig | None = None) -> list[SuiteReport]:
    """Every suite of SUITE_NAMES on one field: ``verify all`` as a library
    call.  The CLI runs suites one by one, so this is kept for library users."""
    config = config or VerifyConfig()
    return [run_suite(field, name, config) for name in SUITE_NAMES]
