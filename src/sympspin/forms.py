"""Spinor-valued exterior forms and the raising/lowering operator calculus.

A degree-r form stores one PolySpinor per strictly increasing r-tuple of
basis indices; absent tuples are zero.  On these the three equivariant
operators act as

    X(a ⊗ s) = - sum_i  e^i ∧ a ⊗ e_i.s          (degree r+1)
    Y(a ⊗ s) =   sum_i  s_i iota_{e_i} a ⊗ e_{i*}.s     (degree r-1)
    H = XY + YX = i (r - l) Id on degree-r forms

and the isotypic projectors are built from X and Y alone:

    one-forms:  p10 = (i/l) XY,               p11 = Id - p10
    two-forms:  p20 = (1/l) X^2 Y^2
                p21 = (i/(l-1)) (XY - (i/l) X^2 Y^2)
                p22 = Id - p20 - p21

The normalizations are forced, not chosen: composing the H identity with the
definitions gives, on 2-forms, the relations

    (XY)^2 = i(1-l) XY - X^2Y^2,   XY X^2Y^2 = X^2Y^2 XY = i X^2Y^2,
    (X^2Y^2)^2 = l X^2Y^2,

so XY acts as i, i(1-l), 0 on the three summands, and the coefficients above
are the unique ones making each operator idempotent with p20+p21+p22 = Id.
Y contracts with omega through the partner map (i*, s_i) of `symplectic`,
the only nonzero entry omega^{i i*} = s_i of row i.
A variant with i/(1-l) in the XY term squares to minus itself; the test
suite pins the idempotent choice.

X and Y are the hot loops of every projector.  They put the components of
a form over one denominator, the lcm of theirs, and add every signed e_i.s
straight into one accumulator per output tuple through the Clifford kernel
`spinors._clifford_into`, which works on packed monomial keys (one exponent
field per variable, the total degree on top; see `spinors`).  Each output
component is reduced to lowest terms once (with a final i, if asked, in
that pass); no spinor is built per (component, index) pair.

Projectors never materialize matrices; they compose X and Y, and each form
is projected once.  By the Clifford relation that lemma1 decides, X^2 on a
0-form is the omega-wedge X^2 (1 ⊗ s) = -i sum_a e^a ∧ e^{a+l} ⊗ s, so p20
runs no X.  A form's private slot `_parts` is empty when it is built; the
first projection fills it with (p10, p11) of a 1-form, from one XY, or with
(p20, p21, Y^2) of a 2-form (`_two_form_parts`), from one Y, one Y^2 and
one XY, each normalization applied before X: p10 = X((i/l) Y phi) and
p21 = X((i/(l-1)) Y phi) + p20/(l-1).  p22 = phi - p20 - p21 is built, and
kept as a fourth part, only when `project("p22", phi)` asks for it; the
theorem verdicts never do.  Every later `project` of that form reads the
slot, so a check that asks for all the parts of one form, and then for the
parts of each part, builds one chain per distinct form.  Forms are
immutable, so the slot never goes stale; equality, hashing and JSON never
read it.

An identity sum c_k F_k = 0 between forms is decided by `_vanishes`, one
tuple at a time on Gaussian-integer numerators, so a verdict on p22 or on
a corrected display builds no sum, scaled copy or p22.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .exact import GaussianRational, RandomStream, _keyed, parse_indices
from .spinors import (
    PolySpinor,
    SpLieElement,
    _clifford_into,
    _common_den,
    _from_acc,
    _spinor,
    poly_spinor_from_json,
    poly_spinor_to_json,
    random_spinor,
    sp_action,
)
from .symplectic import omega_partners

__all__ = [
    "SpinorForm",
    "wedge",
    "wedge_covector",
    "contract",
    "op_X",
    "op_Y",
    "op_H",
    "project",
    "sp_action_form",
    "random_form",
    "spinor_form_to_json",
    "spinor_form_from_json",
]

PROJECTORS = ("p10", "p11", "p20", "p21", "p22")


class SpinorForm:
    """Element of Lambda^r V* tensor S, stored sparsely by increasing tuple.

    The public constructor checks every tuple and component; the results of
    the operators on valid forms are built through the unchecked `_form`.
    Both leave `_parts` empty; `project` fills it once.
    """

    __slots__ = ("l", "r", "cap", "components", "_parts")

    def __init__(self, l: int, r: int, cap: int, components: dict | None = None):
        if not all(type(x) is int for x in (l, r, cap)):
            raise ValueError(f"l, r and cap must be ints, got {(l, r, cap)!r}")
        if not (0 <= r <= 2 * l):
            raise ValueError(f"form degree {r} out of range for l={l}")
        clean: dict[tuple[int, ...], PolySpinor] = {}
        if components:
            for tup, s in components.items():
                tup = tuple(tup)
                if len(tup) != r:
                    raise ValueError(f"tuple {tup} has wrong length for degree {r}")
                if any(not (0 <= t < 2 * l) for t in tup):
                    raise ValueError(f"tuple {tup} out of range")
                if list(tup) != sorted(set(tup)):
                    raise ValueError(f"tuple {tup} must be strictly increasing")
                if s.l != l:
                    raise ValueError("component spinor has wrong l")
                if s.cap != cap:
                    raise ValueError("component spinors must share the cap")
                if not s.is_zero():
                    clean[tup] = s
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "components", clean)
        object.__setattr__(self, "_parts", None)

    def __setattr__(self, name, value):
        raise AttributeError("SpinorForm is immutable")

    @classmethod
    def zero(cls, l: int, r: int, cap: int) -> "SpinorForm":
        return cls(l, r, cap)

    @classmethod
    def from_spinor(cls, s: PolySpinor) -> "SpinorForm":
        """A 0-form."""
        return cls(s.l, 0, s.cap, {(): s})

    def component(self, tup) -> PolySpinor:
        """The spinor at `tup`, or zero with the form's cap."""
        s = self.components.get(tuple(tup))
        return _spinor(self.l, self.cap, {}, 1) if s is None else s

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, SpinorForm):
            return NotImplemented
        return (
            self.l == other.l
            and self.r == other.r
            and self.components == other.components
        )

    def __repr__(self):
        return f"SpinorForm(l={self.l}, r={self.r}, {len(self.components)} components)"

    def __add__(self, other):
        if not isinstance(other, SpinorForm):
            return NotImplemented
        return self._combine(other, subtract=False)

    def __sub__(self, other):
        if not isinstance(other, SpinorForm):
            return NotImplemented
        return self._combine(other, subtract=True)

    def _combine(self, other: "SpinorForm", subtract: bool) -> "SpinorForm":
        """self + other or self - other, component by component."""
        if self.l != other.l:
            raise ValueError("cannot add forms over different spaces")
        cap = max(self.cap, other.cap)
        if self.r != other.r:
            # a zero form has no intrinsic degree; let it absorb into the other
            if self.is_zero():
                return _recap_form(-other if subtract else other, cap)
            if other.is_zero():
                return _recap_form(self, cap)
            raise ValueError("cannot add forms of different degree")
        out = {t: _recap(s, cap) for t, s in self.components.items()}
        for t, s in other.components.items():
            cur = out.get(t)
            s = _recap(s, cap)
            if cur is None:
                tot = -s if subtract else s
            else:
                tot = cur - s if subtract else cur + s
            if tot.is_zero():
                out.pop(t, None)
            else:
                out[t] = tot
        return _form(self.l, self.r, cap, out)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, scalar) -> "SpinorForm":
        g = scalar if isinstance(scalar, GaussianRational) else GaussianRational(scalar)
        if not g:
            return SpinorForm(self.l, self.r, self.cap)
        return _form(self.l, self.r, self.cap,
                     {t: s.scale(g) for t, s in self.components.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, GaussianRational)):
            return self.scale(scalar)
        return NotImplemented

    __rmul__ = __mul__

    def max_spinor_degree(self) -> int:
        if not self.components:
            return -1
        return max(s.degree() for s in self.components.values())

    def headroom(self) -> int:
        return self.cap - max(0, self.max_spinor_degree())


def _form(l: int, r: int, cap: int, components: dict) -> SpinorForm:
    """The unchecked constructor: every key must be a strictly increasing
    r-tuple of indices below 2l and every value a valid spinor over l with
    this cap, as every operator result on valid forms is.  Zero components
    are dropped, as the public constructor drops them."""
    phi = object.__new__(SpinorForm)
    object.__setattr__(phi, "l", l)
    object.__setattr__(phi, "r", r)
    object.__setattr__(phi, "cap", cap)
    object.__setattr__(phi, "components", {t: s for t, s in components.items() if s.num})
    object.__setattr__(phi, "_parts", None)
    return phi


def _recap(s: PolySpinor, cap: int) -> PolySpinor:
    """s with the cap raised to `cap`; a valid spinor stays valid."""
    if s.cap == cap:
        return s
    return _spinor(s.l, cap, s.num, s.den)


def _recap_form(phi: SpinorForm, cap: int) -> SpinorForm:
    if phi.cap == cap:
        return phi
    return _form(phi.l, phi.r, cap, {t: _recap(s, cap) for t, s in phi.components.items()})


def _insert_index(i: int, tup: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and sorted tuple for e^i ∧ e^tup; None when i already occurs."""
    if i in tup:
        return None
    pos = 0
    while pos < len(tup) and tup[pos] < i:
        pos += 1
    sign = -1 if pos % 2 else 1
    return sign, tup[:pos] + (i,) + tup[pos:]


def wedge(i: int, phi: SpinorForm) -> SpinorForm:
    """Left wedge by the basis covector e^i: each component moves, signed."""
    if not (0 <= i < 2 * phi.l):
        raise ValueError(f"covector index {i} out of range")
    if phi.r == 2 * phi.l:
        return SpinorForm.zero(phi.l, phi.r, phi.cap)
    out = {}
    for tup, s in phi.components.items():
        if i not in tup:
            sign, new = _insert_index(i, tup)
            out[new] = s if sign == 1 else -s
    return _form(phi.l, phi.r + 1, phi.cap, out)


def wedge_covector(xi, phi: SpinorForm) -> SpinorForm:
    """Left wedge by the covector with coefficient list xi."""
    if len(xi) != 2 * phi.l:
        raise ValueError("covector must have length 2l")
    acc = SpinorForm.zero(phi.l, min(phi.r + 1, 2 * phi.l), phi.cap)
    for i, c in enumerate(xi):
        if not c:
            continue
        acc = acc + wedge(i, phi).scale(c)
    return acc


def contract(i: int, phi: SpinorForm) -> SpinorForm:
    """Interior product iota_{e_i}: each component moves, signed; zero on 0-forms."""
    if not (0 <= i < 2 * phi.l):
        raise ValueError(f"vector index {i} out of range")
    if phi.r == 0:
        return SpinorForm.zero(phi.l, 0, phi.cap)
    out = {}
    for tup, s in phi.components.items():
        if i in tup:
            pos = tup.index(i)
            out[tup[:pos] + tup[pos + 1:]] = -s if pos % 2 else s
    return _form(phi.l, phi.r - 1, phi.cap, out)


def _over_one_den(phi: SpinorForm) -> tuple[int, list]:
    """(D, [(tup, num, f)]): every component's numerators with the factor f
    that puts them over D, the lcm of the component denominators."""
    comps = phi.components
    den, factors = _common_den([s.den for s in comps.values()])
    return den, [(tup, s.num, f) for (tup, s), f in zip(comps.items(), factors)]


def _form_from_accs(l: int, r: int, cap: int, accs: dict, den: int,
                    times_i: bool = False) -> SpinorForm:
    """The form whose component at each tuple is accs[tup] / den (times i
    when `times_i`), reduced once per component (`spinors._from_acc`)."""
    return _form(l, r, cap, {tup: _from_acc(l, cap, acc, den, times_i)
                             for tup, acc in accs.items()})


def op_X(phi: SpinorForm) -> SpinorForm:
    """X = - sum_i (e^i ∧ .) ⊗ e_i. ; raises form degree and spinor degree.

    Summed in place: every -sign * e_i.s lands in its output tuple's
    accumulator over one denominator, and each output component is reduced
    once."""
    l, cap = phi.l, phi.cap
    if phi.r == 2 * l:
        return SpinorForm.zero(l, phi.r, cap)
    den, comps = _over_one_den(phi)
    accs: dict[tuple[int, ...], dict] = {}
    for tup, num, f in comps:
        for i in range(2 * l):
            ins = _insert_index(i, tup)
            if ins is None:
                continue
            sign, new = ins
            _clifford_into(accs.setdefault(new, {}), num, i, l, cap, -f if sign == 1 else f)
    return _form_from_accs(l, phi.r + 1, cap, accs, den)


def op_Y(phi: SpinorForm) -> SpinorForm:
    """Y = sum_i s_i (iota_{e_i} .) ⊗ e_{i*}. ; zero on 0-forms.

    Summed in place over one denominator, as `op_X` is."""
    l, cap = phi.l, phi.cap
    if phi.r == 0:
        return SpinorForm.zero(l, 0, cap)
    partners = omega_partners(l)
    den, comps = _over_one_den(phi)
    accs: dict[tuple[int, ...], dict] = {}
    for tup, num, f in comps:
        for pos, i in enumerate(tup):
            j, sign = partners[i]
            if pos % 2:
                sign = -sign
            acc = accs.setdefault(tup[:pos] + tup[pos + 1:], {})
            _clifford_into(acc, num, j, l, cap, f if sign > 0 else -f)
    return _form_from_accs(l, phi.r - 1, cap, accs, den)


def op_H(phi: SpinorForm) -> SpinorForm:
    """Anticommutator H = XY + YX; acts as i (r - l) Id on degree-r forms."""
    return op_X(op_Y(phi)) + op_Y(op_X(phi))


def project(which: str, phi: SpinorForm) -> SpinorForm:
    """Isotypic projector onto one irreducible summand.

    p10/p11 expect 1-forms, p20/p21/p22 expect 2-forms; l must be at least 2
    (for l = 1 the two-form decomposition has a different shape and is out of
    scope here).
    """
    if which not in PROJECTORS:
        raise ValueError(f"unknown projector {which!r}")
    if phi.l < 2:
        raise ValueError("projectors require l >= 2")
    if which in ("p10", "p11"):
        if phi.r != 1:
            raise ValueError(f"{which} acts on 1-forms, got degree {phi.r}")
        if phi._parts is None:
            p10 = op_X(op_Y(phi).scale(GaussianRational(0, Fraction(1, phi.l))))
            object.__setattr__(phi, "_parts", (p10, phi - p10))
        return phi._parts[which == "p11"]
    if phi.r != 2:
        raise ValueError(f"{which} acts on 2-forms, got degree {phi.r}")
    p20, p21, yy = _two_form_parts(phi)
    if which != "p22":
        return p21 if which == "p21" else p20
    if len(phi._parts) == 3:                        # p22 is kept once asked for
        object.__setattr__(phi, "_parts", (p20, p21, yy, phi - p20 - p21))
    return phi._parts[3]


def _two_form_parts(phi: SpinorForm) -> tuple[SpinorForm, SpinorForm, SpinorForm]:
    """(p20, p21, Y^2) of a 2-form, from one Y, one Y^2 and one XY,
    computed on the first call and kept on the form.

    p20 = (1/l) X^2Y^2 and p21 = (i/(l-1)) (XY - i p20) are the only places
    the two-form normalizations are written; p22 = phi - p20 - p21 is left to
    `project`.  X^2 of the 0-form Y^2 phi = s is the omega-wedge
    (e_j.e_k - e_k.e_j) s = -i omega_jk s on e^j ∧ e^k; Y^2 still runs
    through the kernel.  i/(l-1) goes on the 1-form Y phi, before X.  phi
    must be a 2-form with l >= 2, as `project` checks.
    """
    if phi._parts is None:
        l, cap = phi.l, phi.cap
        y = op_Y(phi)
        yy = op_Y(y)
        s = yy.component(()).scale(GaussianRational(0, Fraction(-1, l)))
        p20 = _form(l, 2, cap, {(a, a + l): s for a in range(l)})
        p21 = (op_X(y.scale(GaussianRational(0, Fraction(1, l - 1))))
               + p20.scale(Fraction(1, l - 1)))
        object.__setattr__(phi, "_parts", (p20, p21, yy))
    return phi._parts[:3]


def _vanishes(*terms) -> bool:
    """Whether sum c F over the pairs (c, F) in `terms` is zero, for forms F
    and int, Fraction or GaussianRational scalars c.

    Decided one tuple at a time, up to the first that does not cancel, on
    Gaussian-integer numerators: c = (p + i r)/q times a component num/den
    adds (p + i r) (D // (q den)) num over the lcm D of the q den.  Every
    term but the last is added into one accumulator per monomial, and the
    last is taken out of them monomial by monomial, up to the first that
    does not cancel.  No spinor, form or scaled copy is built.
    """
    scaled = []
    for c, phi in terms:
        re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
        q = lcm(re.denominator, im.denominator)
        scaled.append((re.numerator * (q // re.denominator), im.numerator * (q // im.denominator),
                       q, phi.components))
    for tup in set().union(*(comps for *_, comps in scaled)):
        held = [(p, r, q * s.den, s.num) for p, r, q, comps in scaled
                if (s := comps.get(tup)) is not None]
        *held, (u, v, last) = [(p * f, r * f, num) for (p, r, _, num), f
                               in zip(held, _common_den([d for _, _, d, _ in held])[1])]
        acc = {}
        for p, r, num in held:
            for key, (x, y) in num.items():
                re, im = acc.get(key, (0, 0))
                acc[key] = (re + p * x - r * y, im + p * y + r * x)
        for key, (x, y) in last.items():
            re, im = acc.pop(key, (0, 0))
            if re + u * x - v * y or im + u * y + v * x:
                return False
        if any(map(any, acc.values())):
            return False
    return True


def sp_action_form(A: SpLieElement, phi: SpinorForm) -> SpinorForm:
    """Infinitesimal sp(2l)-action on a spinor-valued form.

    Acts on the spinor part through sp_action, component by component, and
    on the form part through the dual action (A* eta)(v) = -eta(A v),
    extended as a derivation over the wedge.  With (A v)^t = sum_q c_tq v^q,
    c_tq = -s_q A[t][q*], that derivation is -sum_{t,q} c_tq e^q ∧ iota_{e_t},
    built from `contract` and `wedge_covector`, which carry every sign.
    """
    if A.l != phi.l:
        raise ValueError("mismatched l")
    partners = omega_partners(phi.l)
    out = _form(phi.l, phi.r, phi.cap,
                {tup: sp_action(A, s) for tup, s in phi.components.items()})
    for t, row in enumerate(A.matrix):
        inner = contract(t, phi)
        if inner.components:
            out = out + wedge_covector([row[qp] if sq > 0 else -row[qp] for qp, sq in partners],
                                       inner)
    return out


def random_form(
    l: int,
    r: int,
    degree: int,
    cap: int,
    stream: RandomStream,
    terms_per_component: int = 4,
    bound: int = 5,
) -> SpinorForm:
    """Random degree-r form with a sparse random spinor in every slot."""
    comps = {}
    for tup in combinations(range(2 * l), r):
        comps[tup] = random_spinor(l, degree, cap, stream, terms=terms_per_component, bound=bound)
    return SpinorForm(l, r, cap, comps)


# ---------------------------------------------------------------------------
# JSON wire format: PolySpinor layout plus a "tuple" key per component
# ---------------------------------------------------------------------------


def spinor_form_to_json(phi: SpinorForm) -> dict:
    comps = []
    for tup in sorted(phi.components):
        inner = poly_spinor_to_json(phi.components[tup])
        comps.append({"tuple": [t + 1 for t in tup], "terms": inner["terms"]})
    return {"l": phi.l, "r": phi.r, "cap": phi.cap, "components": comps}


def spinor_form_from_json(obj: dict) -> SpinorForm:
    items = _keyed(obj["components"], "tuple", lambda t: parse_indices(t, obj["r"], 2 * obj["l"]))
    comps = {tup: poly_spinor_from_json({"l": obj["l"], "cap": obj["cap"], "terms": item["terms"]})
             for tup, item in items.items()}
    return SpinorForm(obj["l"], obj["r"], obj["cap"], comps)
