"""Machine verification of the operator identities, end to end.

The projector route is the oracle of record: every claim about a projection
of the curvature action is decided by applying the X/Y-built projectors to
the exactly computed action

    action(T) phi = (i/2) T^{ij}_{kl} e^k ∧ e^l ⊗ e_i.e_j.phi .

The printed closed-form right-hand sides for those projections are evaluated
independently and compared against the oracle; a mismatch is recorded, never
silently repaired, and never allowed to mask the underlying vanishing
statements.  Two systematic discrepancies are expected and documented:

  * the displayed p20/p21 formulas for the Ricci-type action omit the
    1/(2(l+1)) normalization of sigma_tilde, so they exceed the oracle by
    exactly 2(l+1); the "corrected" comparison reinstates the factor;
  * one displayed p22 formula contains an index that is bound nowhere, so it
    is not evaluable as printed; the bound variant (the one its companion
    display uses) is compared instead and the literal verdict is
    not-applicable.

All checks are exact zero tests; there are no tolerances anywhere.

Two evaluators are folded, exactly: the action sums c e_i.e_j.phi with the
real c per slot k < l of the antisymmetric last pair, and the eq. 11
display sums W^{ijk}_l e_k.e_i.e_j.phi per slot l before the one outer
Clifford product.  The action and the displays raise no index: they read
T^{ij}_{kl} = s_i s_j T_{i*j*kl} off the tensor's lowered int numerators into
int tables of quadratic Clifford terms, which the one kernel
`spinors._quadratic_into` sums over one denominator, forming each product
once for all slots (eq. 11 forms its third products e_k.E_ij once for all
slots l through `spinors._scatter_into`, and adds its outer products
through `spinors._clifford_into`).  Eq. 11 keys its first products by the
unordered pair {i*, j*}, which (C) allows, and the kernel merges mirrored
products there and in the symmetric tables of the action and eq. 9.  The
final i is taken in the read-off (`spinors._from_acc`); no verdict clears
a tensor.  Lemma 1 goes through the same kernel, one slot per ordered
product e_a.(e_b.s), so none is merged and each e_b.s is formed once per
trial.  Replay decodes every index through `exact.parse_indices`, and a
theorem10 tensor as a checked `WeylTensor`.
The theorem checks take p20 and p21 of an action from one Y^2 and one XY
(`forms._two_form_parts`) and build no p22: each verdict on p22, on a
corrected display or on a sum of forms is an identity sum c_k F_k = 0,
decided by `forms._vanishes` component by component, up to the first that
does not cancel.  Corollary 11 builds the chain of act(R) alone.

Every suite is one entry of the registry SUITES: its checks and paper anchors,
its requirements, a sampler, one `holds` per check, a decoder from a
counterexample back to an instance and, for theorem suites, one `Display` per
printed display: the only statement of its name, anchor, documented verdict
and note; a theorem report carries only its verdict pairs, in that order.
One trial loop runs any suite and one replay re-decides any counterexample;
the `*_suite` functions are thin entry points into the loop.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .curvature import (
    CurvatureTensor,
    RicciTensor,
    WeylTensor,
    check_symmetries,
    curvature_from_json,
    curvature_to_json,
    random_curvature,
    random_weyl,
    ricci_from_json,
    ricci_to_json,
    ricci_of,
    sigma_tilde_of,
    _curvature_type,
    _lowered_traces,
    _ricci,
    _ricci_entries,
)
from .connections import (
    connection_from_json,
    connection_to_json,
    curvature_field_of,
    evaluate_curvature_at,
    random_connection,
)
from .exact import GR_I, GaussianRational, RandomStream, parse_indices, parse_rational
from .forms import (
    SpinorForm,
    _form,
    _form_from_accs,
    _two_form_parts,
    _vanishes,
    op_X,
    op_Y,
    op_H,
    project,
    random_form,
    sp_action_form,
    spinor_form_from_json,
    spinor_form_to_json,
    wedge_covector,
)
from .spinors import (
    PolySpinor,
    SpLieElement,
    _clifford_into,
    _from_acc,
    _quadratic_into,
    _scatter_into,
    poly_spinor_from_json,
    poly_spinor_to_json,
    random_spinor,
)
from .symplectic import omega_partners

__all__ = [
    "ActionReport",
    "Check",
    "Display",
    "Suite",
    "SUITES",
    "spinor_curvature_action",
    "verify_theorem9",
    "verify_theorem10",
    "verify_corollary11",
    "theorem9_suite",
    "theorem10_suite",
    "corollary11_suite",
    "symbol_complex_suite",
    "fedosov_suite",
    "equivariance_suite",
    "replay_counterexample",
]


# Dividing the printed trace-free p21 display by 2i makes it match the
# oracle; equivalently XY(action(W)) equals i (not 2) times the displayed
# tensor expression.  Verified exactly at l = 2 and l = 3.
_EQ11_CORRECTION = GaussianRational(0, Fraction(-1, 2))   # 1/(2i)


class ActionReport(NamedTuple):
    """One check's outcome.  A theorem report's `displays` are its (literal,
    corrected) verdict pairs, in the order of its suite's `Display` entries."""

    theorem_id: str
    trials: int
    status: str                        # "pass" | "fail" | "skipped"
    counterexample: dict | None = None
    displays: Sequence[tuple[bool | None, bool | None]] = ()
    witness: dict | None = None        # recorded nonzero instance, where one is required


# ---------------------------------------------------------------------------
# The curvature action on spinors
# ---------------------------------------------------------------------------


def spinor_curvature_action(T: CurvatureTensor, phi: PolySpinor) -> SpinorForm:
    """(i/2) T^{ij}_{kl} e^k ∧ e^l ⊗ e_i.e_j.phi as a spinor-valued 2-form.

    Folded: the last pair is antisymmetric (the entry check enforces it), so
    (k, m) and (m, k) carry c and -c on e^k ∧ e^m, and the slot k < m is
    i T^{ij}_{km} e_i.e_j.phi.  Raising is the signed swap
    T^{ij}_{km} = s_i s_j T_{i*j*km}, read off the numerators E = T.den T;
    each slot sums s_i s_j E_{i*j*km} e_i.(e_j.phi) through
    `_quadratic_into` over the one denominator T.den * phi.den and takes i
    in the read-off.
    """
    if not _curvature_type(T):
        raise ValueError("tensor violates the curvature symmetries")
    partners = omega_partners(T.l)
    pairs = list(combinations(range(2 * T.l), 2))
    terms = [[((k, m), i, si * sj * x) for i, (ip, si) in enumerate(partners)
              for plane in [T.num[ip][jp]] for k, m in pairs if (x := plane[k][m])]
             for jp, sj in partners]
    accs = _quadratic_into(phi, terms)
    return _form_from_accs(T.l, 2, accs, T.den * phi.den, times_i=True)


# ---------------------------------------------------------------------------
# Literal right-hand sides, evaluated independently of the projectors
# ---------------------------------------------------------------------------
#
# Each display reads its raised tensor off the lowered int numerators:
# sigma^{ij} = s_i s_j sigma_{i*j*} and W^{ijk}_l = s_i s_j s_k
# W_{i*j*k*l}.  Each builds an int table of quadratic Clifford terms for
# `_quadratic_into`, which sums them over one denominator, and i is taken
# in the read-off of each component (`spinors._from_acc`).


def literal_p20_ricci(sigma: RicciTensor, phi: PolySpinor) -> SpinorForm:
    """As displayed: i sigma^{ij} omega_kl e^k ∧ e^l ⊗ (1 + 1/l) e_i.e_j.phi.

    omega_kl e^k ∧ e^l puts 2 s_k = 2 on each slot (k, k+l), k < l, and
    nothing elsewhere, so every such slot is i 2(l+1)/l sigma^{ij} e_i.e_j.phi.
    """
    l, S = sigma.l, sigma.num
    partners = omega_partners(l)
    terms = [[(0, i, 2 * (l + 1) * si * sj * x) for i, (ip, si) in enumerate(partners)
              if (x := S[ip][jp])] for jp, sj in partners]
    acc = _quadratic_into(phi, terms).get(0, {})
    s = _from_acc(l, acc, l * sigma.den * phi.den, times_i=True)
    return _form(l, 2, {(k, k + l): s for k in range(l)})


def literal_p21_ricci(sigma: RicciTensor, phi: PolySpinor) -> SpinorForm:
    """As displayed: i sigma^{ij} e^k ∧ e^l (2 omega_il ⊗ e_k.e_j. - (1/l) omega_kl ⊗ e_i.e_j.) phi.

    Over the denominator l * sigma.den * phi.den, the first term puts
    2 l sigma^{ij} s_i e_k.e_j.phi on e^k ∧ e^{i*} (omega_{i i*} = s_i), and
    the second -2 sigma^{ij} e_i.e_j.phi on each slot (k, k+l), k < l.
    """
    l, S = sigma.l, sigma.num
    partners = omega_partners(l)
    terms = []
    for jp, sj in partners:
        row = []
        for i, (m, si) in enumerate(partners):
            x = si * sj * S[m][jp]
            if x:
                row += [((k, k + l), i, -2 * x) for k in range(l)]
                row += [((k, m), k, 2 * l * x * si) if k < m else ((m, k), k, -2 * l * x * si)
                        for k in range(2 * l) if k != m]
        terms.append(row)
    accs = _quadratic_into(phi, terms)
    return _form_from_accs(l, 2, accs, l * sigma.den * phi.den, times_i=True)


def literal_p21_weyl(W: CurvatureTensor, phi: PolySpinor) -> SpinorForm:
    """As displayed: (2i/(1-l)) W^{ijk}_l e^m ∧ e^l ⊗ e_m.e_k.e_i.e_j.phi.

    Folded: s_i s_j e_i.e_j.phi is summed by `_quadratic_into` once per
    unordered {i*, j*} (W is symmetric in its first pair, (C)), then
    T_l = W^{ijk}_l e_k.e_i.e_j.phi per slot l, each e_k.E_ij formed once for
    all l; the form's slot a < b is e_a.T_b - e_b.T_a.  2i/(1-l) is -2 i over
    (l-1) W.den phi.den.
    """
    l = W.l
    n = 2 * l
    partners = omega_partners(l)
    E = W.num
    terms = [[((min(ip, jp), max(ip, jp)), i, si * sj) for i, (ip, si) in enumerate(partners)]
             for jp, sj in partners]
    slot: list[dict] = [{} for _ in range(n)]
    for (ip, jp), eij in _quadratic_into(phi, terms).items():
        if not eij:
            continue
        block = E[ip][jp]
        for k, (kp, sk) in enumerate(partners):
            row = [(slot[m], sk * x) for m, x in enumerate(block[kp]) if x]
            if row:
                _scatter_into(row, eij, k, l, 1)
    accs: dict[tuple[int, int], dict] = {}
    for a, b in combinations(range(n), 2):
        acc = accs[(a, b)] = {}
        _clifford_into(acc, slot[b], a, l, -2)
        _clifford_into(acc, slot[a], b, l, 2)
    return _form_from_accs(l, 2, accs, (l - 1) * W.den * phi.den, times_i=True)


# ---------------------------------------------------------------------------
# Per-instance verdicts
# ---------------------------------------------------------------------------


def _theorem_report(name: str, ok: bool, key: str, T, phi: PolySpinor, verdicts) -> ActionReport:
    """One theorem instance's report, keeping its (literal, corrected) verdicts
    as given, in the order of the suite's registry displays."""
    to_json = ricci_to_json if isinstance(T, RicciTensor) else curvature_to_json
    ce = None if ok else {"check": name, "l": T.l, key: to_json(T),
                          "phi": poly_spinor_to_json(phi)}
    return ActionReport(name, 1, "pass" if ok else "fail", ce, verdicts)


def verify_theorem9(sigma: RicciTensor, phi: PolySpinor) -> ActionReport:
    """Ricci-type action lands in the first two summands: p22 = act - p20 - p21
    of it vanishes, decided as act = p20 + p21."""
    act = spinor_curvature_action(sigma_tilde_of(sigma), phi)
    p20, p21, _ = _two_form_parts(act)
    prefactor = Fraction(1, 2 * (sigma.l + 1))
    lit9 = literal_p20_ricci(sigma, phi)
    lit10 = literal_p21_ricci(sigma, phi)
    verdicts = [(p20 == lit9, _vanishes((prefactor, lit9), (-1, p20))),
                (p21 == lit10, _vanishes((prefactor, lit10), (-1, p21)))]
    ok = _vanishes((1, act), (-1, p20), (-1, p21))
    return _theorem_report("theorem9", ok, "sigma", sigma, phi, verdicts)


def verify_theorem10(W: CurvatureTensor, phi: PolySpinor) -> ActionReport:
    """Trace-free action avoids the first summand, and Y^2 kills it outright.
    The corrected eq12, p22 = act - c lit11, is decided as p20 + p21 = c lit11."""
    p20, p21, yy = _two_form_parts(spinor_curvature_action(W, phi))
    lit11 = literal_p21_weyl(W, phi)
    verdicts = [(p21 == lit11, _vanishes((_EQ11_CORRECTION, lit11), (-1, p21))),
                (None, _vanishes((_EQ11_CORRECTION, lit11), (-1, p20), (-1, p21)))]
    return _theorem_report("theorem10", p20.is_zero() and yy.is_zero(), "weyl", W, phi, verdicts)


def verify_corollary11(R: CurvatureTensor, phi: PolySpinor) -> ActionReport:
    """Projections of the full action split into Ricci and trace-free parts.

    p2j(act R) = p2j(act sigma_tilde) + p2j(act W), j = 0, 1, 2, is decided as
    act(R) = act(sigma_tilde) + act(W): the chain is Q(i)-linear, so that
    implies j = 0, 1, and where it fails j = 2 (p22 = act - p20 - p21) fails
    too; the same verdict on every input, and only act(R) gets a chain, for
    the displays.  The p22 displays, p22(R) = act(W) - c lit11, read
    act(R) - p20 - p21 - act(W) + c lit11 = 0."""
    sigma = ricci_of(R)
    st = sigma_tilde_of(sigma)
    W = R - st
    act_r, act_s, act_w = (spinor_curvature_action(T, phi) for T in (R, st, W))
    p20, p21, _ = _two_form_parts(act_r)
    ok = _vanishes((1, act_r), (-1, act_s), (-1, act_w))
    prefactor = Fraction(1, 2 * (R.l + 1))
    lit9 = literal_p20_ricci(sigma, phi)
    lit10 = literal_p21_ricci(sigma, phi)
    lit11 = literal_p21_weyl(W, phi)
    p22_of = (1, act_r), (-1, p20), (-1, p21), (-1, act_w)
    verdicts = [(p20 == lit9, _vanishes((prefactor, lit9), (-1, p20))),
                (_vanishes((1, lit10), (1, lit11), (-1, p21)),
                 _vanishes((prefactor, lit10), (_EQ11_CORRECTION, lit11), (-1, p21))),
                (_vanishes(*p22_of, (1, lit11)), _vanishes(*p22_of, (_EQ11_CORRECTION, lit11)))]
    return _theorem_report("corollary11", ok, "curvature", R, phi, verdicts)


def symbol_complex_instance(xi, eta: SpinorForm) -> bool:
    """p22(xi ∧ p10(eta)) = 0, the degree-one composability at symbol level,
    decided as psi = p20 + p21 for psi = xi ∧ p10(eta)."""
    psi = wedge_covector(xi, project("p10", eta))
    return _vanishes((1, psi), *((-1, part) for part in _two_form_parts(psi)[:2]))


def symbol_negative_control(xi, eta: SpinorForm) -> bool:
    """True when p22(xi ∧ p11(eta)) is nonzero, exhibiting non-vanishing."""
    psi = wedge_covector(xi, project("p11", eta))
    return not _vanishes((1, psi), *((-1, part) for part in _two_form_parts(psi)[:2]))


def lemma5_idempotency_instance(one_form, two_form) -> str | None:
    for which, phi in (("p10", one_form), ("p11", one_form),
                       ("p20", two_form), ("p21", two_form), ("p22", two_form)):
        once = project(which, phi)
        if project(which, once) != once:
            return which
    return None


def lemma5_orthogonality_instance(one_form, two_form) -> tuple | None:
    pairs = [("p10", "p11"), ("p11", "p10")]
    pairs += [(a, b) for a in ("p20", "p21", "p22") for b in ("p20", "p21", "p22") if a != b]
    for a, b in pairs:
        phi = one_form if a in ("p10", "p11") else two_form
        if not project(a, project(b, phi)).is_zero():
            return (a, b)
    return None


def lemma5_partition_instance(one_form, two_form) -> str | None:
    if not _vanishes((1, project("p10", one_form)), (1, project("p11", one_form)), (-1, one_form)):
        return "one-forms"
    if not _vanishes(*((1, project(p, two_form)) for p in ("p20", "p21", "p22")), (-1, two_form)):
        return "two-forms"
    return None


def lemma6_instance(R: CurvatureTensor) -> bool:
    """sigma is symmetric and R^{ijkl} omega_kl = 2 sigma^{ij}.

    Raising is the signed swap T'[i] = s_i T[i*] in every slot, so the raised
    trace at (i, j) is s_i s_j sum_a s_a R_{i*j*aa*} and 2 sigma^{ij} is
    2 s_i s_j sigma_{i*j*}: the identity is the lowered slot-(2, 3) trace
    sum_a s_a R_{uvaa*} = 2 sigma_uv for every (u, v), decided on the
    numerators of R: both sides are over R.den.
    """
    sig = _ricci_entries(R)
    n = len(sig)
    if any(sig[i][j] != sig[j][i] for i in range(n) for j in range(i + 1, n)):
        return False
    trace = _lowered_traces(R.num, omega_partners(R.l), ((2, 3),))[(2, 3)]
    return all(trace[u][v] == 2 * sig[u][v] for u in range(n) for v in range(n))


def lemma7_weyl_instance(R: CurvatureTensor) -> bool:
    """W = R - sigma_tilde(ricci R) satisfies (A)-(D) and is trace-free.

    W is R - sigma_tilde summed over ints on the lcm of their denominators,
    and every test below is an integer zero test on its numerators.  The six
    omega-traces are taken on the lowered W: raising is a signed permutation
    of the entries, so each raised trace is a signed permutation of the
    lowered one and vanishes exactly when it does.  The Ricci trace of W
    needs no test of its own: with a = m*, s_a = -s_m, the slot-(0, 2) trace is
    sum_a s_a W_{a u a* v} = -sum_m s_m W_{m* u m v} = -sigma_vu(W),
    so sigma(W) vanishes exactly when that trace does.
    """
    W = R - sigma_tilde_of(_ricci(R.l, _ricci_entries(R), R.den))
    if not check_symmetries(W).all_hold():
        return False
    traces = _lowered_traces(W.num, omega_partners(R.l))
    return not any(x for mat in traces.values() for row in mat for x in row)


def lemma7_section_instance(sigma: RicciTensor) -> bool:
    st = sigma_tilde_of(sigma)
    if not _curvature_type(st):
        return False
    return _ricci(sigma.l, _ricci_entries(st), st.den) == sigma


def equivariance_instance(A: SpLieElement, phi: SpinorForm) -> bool:
    """[action(A), X] = 0 and [action(A), Y] = 0 on a form; the action on
    phi itself is computed once, for both."""
    act = sp_action_form(A, phi)
    if sp_action_form(A, op_X(phi)) != op_X(act):
        return False
    return sp_action_form(A, op_Y(phi)) == op_Y(act)


def _aggregate_displays(per_trial: list[list[tuple]]) -> list[tuple]:
    """AND the verdict pairs across trials, column by column; None stays None."""
    return [tuple(None if col[0] is None else all(col) for col in zip(*pairs))
            for pairs in zip(*per_trial)]


# ---------------------------------------------------------------------------
# The check registry
# ---------------------------------------------------------------------------

# Size ceiling for a run and for a replayed counterexample.  At l = 4 a
# theorem trial takes seconds; the fedosov suite (5 connections x 5 points)
# takes about 0.26 s at l = 3 and 0.86 s at l = 4 (CPython 3.11.7, 2 vCPUs).
# The set-up does not set the ceiling: both constraint-space bases take about
# 4 ms at l = 3, 10 ms at l = 4, 23 ms at l = 5 and 0.16 s at l = 8, in a
# fresh process (each the sum of the two, best of 11).  Raising MAX_L waits
# for a work budget that keeps trials times per-trial cost bounded at larger
# l.  MAX_TRIALS bounds the trial loop: the default run (l = 2) decides 20
# trials of every suite in under a second, so 1000 keeps even l = 4 runs
# finite without limiting any run anyone needs.
MAX_L = 4
MAX_DEGREE = 16
MAX_TRIALS = 1000

FEDOSOV_CONNECTIONS = 5     # connections a CLI run samples whenever trials > 0
FEDOSOV_POINTS = 5          # curvature evaluation points per connection


class Check(NamedTuple):
    """One identity.  `holds(instance)` is None when the instance
    satisfies it, else the failure payload (the counterexample minus "check").
    A witness check is existential: holds returns a witness when the instance
    exhibits one, and the check passes once any trial has.  Holds reaches the
    instance verdicts through their module-level names, so whatever rebinds
    those names (a tracer, a test) sees every call."""

    name: str
    anchor: str
    holds: Callable
    witness: bool = False


class Display(NamedTuple):
    """A printed right-hand side: the one statement of its name, paper anchor,
    documented (literal, corrected) verdict and note.  A theorem report's
    verdict pairs follow these entries in order, and whatever names or
    annotates a pair (the report's display records) zips it with them."""

    name: str
    anchor: str
    expected: tuple[bool | None, bool | None]
    note: str


class Suite(NamedTuple):
    """One suite.  `sample(l, degree, stream)` draws a trial's instance from the
    suite's one stream; `decode(counterexample)` rebuilds the instance.  In a
    theorem suite (one with displays) holds returns (payload, verdict pairs).
    `run(l, degree, trials, seed)` calls the suite's module-level entry point,
    by name, as a CLI run configures it, and returns its reports."""

    name: str
    checks: tuple[Check, ...]
    sample: Callable
    decode: Callable
    run: Callable
    min_l: int = 1
    min_pad: int = 0
    displays: tuple[Display, ...] = ()
    per_trial: int = 1          # instances decided per sampled trial
    cli: bool = True            # a --suite choice and part of "all"


def _seed(stream: RandomStream) -> int:
    return stream.next_int(0, 2**31 - 1)


def _strs(xs) -> list[str]:
    return [str(x) for x in xs]


def _rationals(xs) -> list[Fraction]:
    return [parse_rational(x) for x in xs]


def _curvature_payload(R: CurvatureTensor) -> dict:
    return {"l": R.l, "curvature": curvature_to_json(R)}


def _lemma1_holds(instance):
    """e_a.(e_b.s) - e_b.(e_a.s) + i omega_ab s per pair; one kernel slot per product."""
    s, pairs = instance
    need = {p for a, b in pairs for p in ((a, b), (b, a))}
    accs = _quadratic_into(s, [[(ab, ab[0], 1) for ab in need if ab[1] == c]
                               for c in range(2 * s.l)])
    product = {ab: _from_acc(s.l, acc, s.den) for ab, acc in accs.items()}
    partners = omega_partners(s.l)
    for a, b in pairs:
        partner, sign = partners[a]     # omega(e_a, e_b) = sign at b = partner, else 0
        resid = product[a, b] - product[b, a] + s.scale(GR_I * (sign if b == partner else 0))
        if not resid.is_zero():
            return {"l": s.l, "a": a + 1, "b": b + 1, "spinor": poly_spinor_to_json(s)}
    return None


def _lemma4_holds(forms):
    for phi in forms:
        if op_H(phi) != phi.scale(GaussianRational(0, phi.r - phi.l)):
            return {"l": phi.l, "form": spinor_form_to_json(phi)}
    return None


def _lemma5_payload(key: str, bad, forms) -> dict | None:
    if bad is None:
        return None
    one_form, two_form = forms
    return {key: list(bad) if isinstance(bad, tuple) else bad, "l": one_form.l,
            "one_form": spinor_form_to_json(one_form), "two_form": spinor_form_to_json(two_form)}


def _lemma7_decode(ce):
    """Each lemma7 counterexample carries only the part its check uses."""
    if ce["check"] == "lemma7.ricci-section":
        return None, ricci_from_json(ce["sigma"])
    return curvature_from_json(ce["curvature"]), None


def _theorem(report: ActionReport):
    return report.counterexample, report.displays


def _theorem_decode(ce, key, from_json):
    return from_json(ce[key]), poly_spinor_from_json(ce["phi"])


def _symbol_payload(instance) -> dict:
    xi, eta = instance
    return {"l": eta.l, "xi": _strs(xi), "eta": spinor_form_to_json(eta)}


class _FedosovTrial:
    """A connection and points; its curvature there is computed on first use.

    `curvature_field_of` runs the axiom check once and refuses a connection
    that fails it; that one verdict decides `fedosov.axioms`, and a refused
    connection has no curvatures to check."""

    def __init__(self, conn, points):
        self.conn, self.points = conn, points

    @cached_property
    def field(self):
        """The curvature jets, or None when the connection fails the axioms."""
        try:
            return curvature_field_of(self.conn)
        except ValueError:
            return None

    @cached_property
    def curvatures(self):
        if self.field is None:
            return []
        return [evaluate_curvature_at(self.field, p) for p in self.points]

    def failure(self, ok) -> dict | None:
        """Payload naming the first point whose curvature fails `ok`."""
        for point, R in zip(self.points, self.curvatures):
            if not ok(R):
                return {"connection": connection_to_json(self.conn), "point": _strs(point)}
        return None


def _fedosov_sample(l, degree, stream, n_points=FEDOSOV_POINTS):
    conn = random_connection(l, degree, _seed(stream))
    points = [[stream.next_fraction(3) for _ in range(2 * l)] for _ in range(n_points)]
    return _FedosovTrial(conn, points)


def _fedosov_decode(ce):
    conn = connection_from_json(ce["connection"])
    points = [] if ce["check"] == "fedosov.axioms" else [_rationals(ce["point"])]
    return _FedosovTrial(conn, points)


def _equivariance_payload(instance) -> dict:
    A, phi = instance
    return {"l": A.l, "matrix": [_strs(row) for row in A.matrix], "form": spinor_form_to_json(phi)}


SUITES: dict[str, Suite] = {suite.name: suite for suite in (
    Suite(
        "lemma1",
        (Check("lemma1", "e_a.e_b.s - e_b.e_a.s = -i omega(e_a, e_b) s", _lemma1_holds),),
        # a spinor and every ordered pair of basis vectors
        sample=lambda l, degree, stream: (random_spinor(l, degree, stream),
                                          [(a, b) for a in range(2 * l) for b in range(2 * l)]),
        decode=lambda ce: (poly_spinor_from_json(ce["spinor"]),
                           [parse_indices([ce["a"], ce["b"]], 2, 2 * ce["l"])]),
        run=lambda l, degree, trials, seed: [lemma1_suite(l, degree, trials, seed)],
        min_l=2,
    ),
    Suite(
        "lemma4",
        (Check("lemma4", "XY + YX = i (r - l) Id on degree-r forms", _lemma4_holds),),
        sample=lambda l, degree, stream: [random_form(l, r, degree, stream) for r in (0, 1, 2)],
        decode=lambda ce: [spinor_form_from_json(ce["form"])],
        run=lambda l, degree, trials, seed: [lemma4_suite(l, degree, trials, seed)],
        min_l=2,
    ),
    Suite(
        "lemma5",
        (
            Check("lemma5.idempotency", "p.p = p for each of the five projectors",
                  lambda forms: _lemma5_payload(
                      "projector", lemma5_idempotency_instance(*forms), forms)),
            Check("lemma5.orthogonality", "p_a.p_b = 0 for distinct projectors of one form degree",
                  lambda forms: _lemma5_payload(
                      "pair", lemma5_orthogonality_instance(*forms), forms)),
            Check("lemma5.partition-of-identity", "p10 + p11 = Id and p20 + p21 + p22 = Id",
                  lambda forms: _lemma5_payload(
                      "degree", lemma5_partition_instance(*forms), forms)),
        ),
        sample=lambda l, degree, stream: (random_form(l, 1, degree, stream),
                                          random_form(l, 2, degree, stream)),
        decode=lambda ce: (spinor_form_from_json(ce["one_form"]),
                           spinor_form_from_json(ce["two_form"])),
        run=lambda l, degree, trials, seed: lemma5_suite(l, degree, trials, seed),
        min_l=2,
    ),
    Suite(
        "lemma6",
        (Check("lemma6", "R^{ijkl} omega_kl = 2 sigma^{ij} and sigma symmetric",
               lambda R: None if lemma6_instance(R) else _curvature_payload(R)),),
        sample=lambda l, degree, stream: random_curvature(l, _seed(stream)),
        decode=lambda ce: curvature_from_json(ce["curvature"]),
        run=lambda l, degree, trials, seed: [lemma6_suite(l, trials, seed)],
    ),
    Suite(
        "lemma7",
        (
            Check("lemma7.weyl-trace-free",
                  "all six omega-traces of W vanish; 4-term cyclic identity",
                  lambda inst: None if lemma7_weyl_instance(inst[0])
                  else _curvature_payload(inst[0])),
            Check("lemma7.ricci-section", "ricci(sigma_tilde(s)) = s for symmetric s",
                  lambda inst: None if lemma7_section_instance(inst[1])
                  else {"l": inst[1].l, "sigma": ricci_to_json(inst[1])}),
        ),
        sample=lambda l, degree, stream: (random_curvature(l, _seed(stream)),
                                          RicciTensor.random(l, stream)),
        decode=_lemma7_decode,
        run=lambda l, degree, trials, seed: lemma7_suite(l, trials, seed),
    ),
    Suite(
        "theorem9",
        (Check("theorem9", "p22 of the Ricci-type spinor action vanishes",
               lambda inst: _theorem(verify_theorem9(*inst))),),
        sample=lambda l, degree, stream: (RicciTensor.random(l, stream),
                                          random_spinor(l, degree, stream)),
        decode=lambda ce: _theorem_decode(ce, "sigma", ricci_from_json),
        run=lambda l, degree, trials, seed: [theorem9_suite(l, degree, trials, seed)],
        min_l=2,
        min_pad=6,
        displays=tuple(
            Display(f"eq{9 + j}", f"printed p2{j} of the Ricci-type action vs projector oracle",
                    (False, True), "corrected variant reinstates the 1/(2(l+1)) normalization")
            for j in range(2)
        ),
    ),
    Suite(
        "theorem10",
        (Check("theorem10", "p20 and Y^2 of the trace-free spinor action vanish",
               lambda inst: _theorem(verify_theorem10(*inst))),),
        sample=lambda l, degree, stream: (random_weyl(l, _seed(stream)),
                                          random_spinor(l, degree, stream)),
        # the theorem is about trace-free tensors only: refuse any other
        decode=lambda ce: _theorem_decode(
            ce, "weyl", lambda obj: WeylTensor(obj["l"], curvature_from_json(obj).entries)),
        run=lambda l, degree, trials, seed: [theorem10_suite(l, degree, trials, seed)],
        min_l=2,
        min_pad=6,
        displays=(
            Display("eq11", "printed p21 of the trace-free action vs projector oracle",
                    (False, True), "oracle matches the display divided by 2i: the coefficient "
                                   "is 1/(1-l), not 2i/(1-l)"),
            Display("eq12", "printed p22 of the trace-free action (bound variant) vs oracle",
                    (None, True), "printed display has an unbound index; tested the bound "
                                  "variant (action minus the corrected p21 term)"),
        ),
    ),
    Suite(
        "corollary11",
        (Check("corollary11",
               "p2j(action R) = p2j(action sigma_tilde) + p2j(action W), j = 0,1,2",
               lambda inst: _theorem(verify_corollary11(*inst))),),
        sample=lambda l, degree, stream: (random_curvature(l, _seed(stream)),
                                          random_spinor(l, degree, stream)),
        decode=lambda ce: _theorem_decode(ce, "curvature", curvature_from_json),
        run=lambda l, degree, trials, seed: [corollary11_suite(l, degree, trials, seed)],
        min_l=2,
        min_pad=6,
        displays=tuple(
            Display(f"p2{j}-display", f"printed p2{j} of the full action vs projector oracle",
                    (False, True), note)
            for j, note in enumerate((
                "Ricci part as displayed vs with the sigma_tilde normalization",
                "corrected variant: sigma_tilde normalization on the Ricci "
                "summand and the trace-free summand divided by 2i",
                "corrected variant divides the subtracted term by 2i",
            ))
        ),
    ),
    Suite(
        "symbol-complex",
        (
            Check("symbol-complex", "p22(xi ^ p10(eta)) = 0 for random covectors and 1-forms",
                  lambda inst: None if symbol_complex_instance(*inst)
                  else _symbol_payload(inst)),
            Check("symbol-complex.negative-control",
                  "p22(xi ^ p11(eta)) != 0 for a recorded witness",
                  lambda inst: _symbol_payload(inst)
                  if symbol_negative_control(*inst) else None,
                  witness=True),
        ),
        sample=lambda l, degree, stream: ([stream.next_fraction(5) for _ in range(2 * l)],
                                          random_form(l, 1, degree, stream)),
        decode=lambda ce: (_rationals(ce["xi"]), spinor_form_from_json(ce["eta"])),
        run=lambda l, degree, trials, seed: symbol_complex_suite(l, degree, trials, seed),
        min_l=2,
        min_pad=6,
    ),
    Suite(
        "fedosov",
        (
            Check("fedosov.axioms", "nabla omega = 0 and zero torsion as polynomial identities",
                  lambda trial: None if trial.field is not None
                  else {"connection": connection_to_json(trial.conn)}),
            Check("fedosov.curvature-symmetries",
                  "evaluated curvatures satisfy all four symmetries",
                  lambda trial: trial.failure(lambda R: check_symmetries(R).all_hold())),
            Check("fedosov.decomposition",
                  "R = sigma_tilde(ricci R) + W with W trace-free, pointwise",
                  lambda trial: trial.failure(lemma7_weyl_instance)),
        ),
        sample=_fedosov_sample,
        decode=_fedosov_decode,
        # --trials only switches the suite on or off
        run=lambda l, degree, trials, seed: fedosov_suite(
            l, seed, n_connections=FEDOSOV_CONNECTIONS if trials else 0),
        per_trial=FEDOSOV_POINTS,
    ),
    Suite(
        "equivariance",
        (Check("equivariance", "[sp_action(A), X] = 0 and [sp_action(A), Y] = 0",
               lambda inst: None if equivariance_instance(*inst)
               else _equivariance_payload(inst)),),
        sample=lambda l, degree, stream: (SpLieElement.random(l, stream),
                                          random_form(l, 1, degree, stream)),
        decode=lambda ce: (
            SpLieElement(ce["l"], [_rationals(row) for row in ce["matrix"]]),
            spinor_form_from_json(ce["form"]),
        ),
        run=lambda l, degree, trials, seed: [equivariance_suite(l, degree, trials, seed)],
        min_l=2,
        cli=False,   # adding it to "all" would change the default report
    ),
)}


# ---------------------------------------------------------------------------
# The trial loop and the suite entry points
# ---------------------------------------------------------------------------


def _evaluate(suite: Suite, check: Check, instance):
    """(failure payload or None, display verdict pairs) of one check on one instance."""
    verdict = check.holds(instance)
    return verdict if suite.displays else (verdict, [])


def _run_checks(suite: Suite, l: int, degree: int, trials: int, seed: int) -> list[ActionReport]:
    """Sample `trials` instances from one stream and decide every check on each.

    A check is no longer evaluated once it has failed (a witness check: once
    it has its witness), except in a theorem suite, whose displays are
    compared on every trial.  Each report keeps the first failure.
    """
    if trials == 0:
        return [ActionReport(c.name, 0, "skipped") for c in suite.checks]
    stream = RandomStream(seed)
    found: dict[str, dict] = {}
    shown: list[list[tuple]] = []
    for _ in range(trials):
        pending = [c for c in suite.checks if suite.displays or c.name not in found]
        if not pending:
            break
        instance = suite.sample(l, degree, stream)
        for check in pending:
            payload, displays = _evaluate(suite, check, instance)
            if displays:
                shown.append(displays)
            if payload is not None:
                found.setdefault(check.name, payload)
    n = trials * suite.per_trial
    reports = []
    for check in suite.checks:
        payload = found.get(check.name)
        if check.witness:
            ce = None if payload else {"check": check.name, "l": l,
                                       "note": "no nonzero witness found"}
        else:
            ce = payload and {"check": check.name, **payload}
        reports.append(ActionReport(check.name, n, "fail" if ce else "pass", ce,
                                    witness=payload if check.witness else None))
    if shown:
        reports[0] = reports[0]._replace(displays=_aggregate_displays(shown))
    return reports


def lemma1_suite(l: int, degree: int, trials: int, seed: int) -> ActionReport:
    """Clifford commutator: e_a.e_b.s - e_b.e_a.s + i omega_ab s = 0."""
    return _run_checks(SUITES["lemma1"], l, degree, trials, seed)[0]


def lemma4_suite(l: int, degree: int, trials: int, seed: int) -> ActionReport:
    """H = i (r - l) Id on degree-r forms, r = 0, 1, 2."""
    return _run_checks(SUITES["lemma4"], l, degree, trials, seed)[0]


def lemma5_suite(l: int, degree: int, trials: int, seed: int) -> list[ActionReport]:
    return _run_checks(SUITES["lemma5"], l, degree, trials, seed)


def lemma6_suite(l: int, trials: int, seed: int) -> ActionReport:
    """Raised trace identity R^{ijkl} omega_kl = 2 sigma^{ij}, sigma symmetric."""
    return _run_checks(SUITES["lemma6"], l, 0, trials, seed)[0]


def lemma7_suite(l: int, trials: int, seed: int) -> list[ActionReport]:
    return _run_checks(SUITES["lemma7"], l, 0, trials, seed)


def theorem9_suite(l: int, degree: int, trials: int, seed: int) -> ActionReport:
    return _run_checks(SUITES["theorem9"], l, degree, trials, seed)[0]


def theorem10_suite(l: int, degree: int, trials: int, seed: int) -> ActionReport:
    return _run_checks(SUITES["theorem10"], l, degree, trials, seed)[0]


def corollary11_suite(l: int, degree: int, trials: int, seed: int) -> ActionReport:
    return _run_checks(SUITES["corollary11"], l, degree, trials, seed)[0]


def symbol_complex_suite(l: int, degree: int, trials: int, seed: int) -> list[ActionReport]:
    return _run_checks(SUITES["symbol-complex"], l, degree, trials, seed)


def fedosov_suite(l: int, seed: int, n_connections: int = FEDOSOV_CONNECTIONS,
                  n_points: int = FEDOSOV_POINTS, degree: int = 2) -> list[ActionReport]:
    suite = SUITES["fedosov"]._replace(
        per_trial=n_points, sample=lambda l, degree, stream: _fedosov_sample(l, degree, stream, n_points))
    return _run_checks(suite, l, degree, n_connections, seed)


def equivariance_suite(l: int, degree: int, trials: int, seed: int) -> ActionReport:
    return _run_checks(SUITES["equivariance"], l, degree, trials, seed)[0]


# ---------------------------------------------------------------------------
# Counterexample replay
# ---------------------------------------------------------------------------


_REPLAYABLE = {
    check.name: (suite, check)
    for suite in SUITES.values() for check in suite.checks if not check.witness
}


def _check_replay_sizes(ce: dict) -> None:
    """Reject a counterexample unless it names its l at the top level and
    every "l" in it, at any depth, is that one integer in 1..MAX_L.  A fedosov
    counterexample carries only its connection, whose own l stands alone.
    Runs before decoding: the decoders allocate by l, and a curvature tensor
    alone holds (2l)^4 entries.  A connection's degree cap is bounded by
    MAX_DEGREE too, as its evaluation tabulates powers up to that degree."""
    if "l" not in ce and "connection" not in ce:
        raise ValueError("counterexample has no top-level l")
    stack = [ce]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            l = node.get("l")
            if "l" in node and (type(l) is not int or not 1 <= l <= MAX_L or l != ce.get("l", l)):
                raise ValueError(f"counterexample has l = {l!r} under l = {ce.get('l')!r}; "
                                 f"replay accepts one integer l with 1 <= l <= {MAX_L}")
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    cap = ce["connection"].get("cap") if isinstance(ce.get("connection"), dict) else 0
    if type(cap) is not int or not 0 <= cap <= MAX_DEGREE:
        raise ValueError(f"connection has cap = {cap!r}; replay accepts 0..{MAX_DEGREE}")


def replay_counterexample(ce: dict) -> dict:
    """Decode a serialized counterexample and re-run its check; deterministic."""
    name = ce.get("check")
    if name not in _REPLAYABLE:
        raise ValueError(f"check {name!r} has no instance to replay")
    suite, check = _REPLAYABLE[name]
    _check_replay_sizes(ce)
    instance = suite.decode(ce)
    payload, _ = _evaluate(suite, check, instance)
    ok = payload is None
    return {"check": name, "status": "pass" if ok else "fail", "reproduced": not ok}
