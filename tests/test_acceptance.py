"""Acceptance criteria, one test per criterion.

All identity checks are exact (zero tolerance); the only numeric bounds are
the stated runtime budgets.  Each test prints one pass line; run with
`pytest -v tests/test_acceptance.py` to see the per-criterion outcomes.
"""

import hashlib
import json
import time
from fractions import Fraction

from sympspin.cli import RunConfig, run_suite
from sympspin.curvature import (
    RicciTensor,
    check_symmetries,
    curvature_space_basis,
    omega_traces,
    random_curvature,
    random_weyl,
    ricci_of,
    sigma_tilde_of,
    weyl_of,
    weyl_space_basis,
)
from sympspin.exact import GR_I, GaussianRational, RandomStream
from sympspin.forms import op_H, random_form
from sympspin.spinors import clifford_basis, random_spinor
from sympspin.symplectic import standard_symplectic_form
from sympspin.verify import (
    SUITES,
    equivariance_suite,
    fedosov_suite,
    lemma5_suite,
    symbol_complex_suite,
    verify_corollary11,
    verify_theorem9,
    verify_theorem10,
)

F = Fraction


def _announce(number, name, elapsed):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_01_lemma1_clifford_commutator():
    """v.w.s - w.v.s + i omega(v,w) s = 0: all basis pairs, l in {2,3}."""
    t0 = time.time()
    for l in (2, 3):
        space = standard_symplectic_form(l)
        stream = RandomStream(1000 + l)
        for _ in range(20):
            s = random_spinor(l, 6, stream)
            for a in range(2 * l):
                for b in range(2 * l):
                    resid = (
                        clifford_basis(a, clifford_basis(b, s))
                        - clifford_basis(b, clifford_basis(a, s))
                        + s.scale(GR_I * space.omega_lower[a][b])
                    )
                    assert resid.is_zero()
    elapsed = time.time() - t0
    assert elapsed < 10
    _announce(1, "lemma1", elapsed)


def test_criterion_02_lemma4_h_eigenvalue():
    """H = i(r-l) Id on random r-forms, r in {0,1,2}, l in {2,3}."""
    t0 = time.time()
    for l in (2, 3):
        stream = RandomStream(2000 + l)
        for r in (0, 1, 2):
            for _ in range(20):
                phi = random_form(l, r, 6, stream)
                assert op_H(phi) == phi.scale(GaussianRational(0, r - l))
    elapsed = time.time() - t0
    assert elapsed < 10
    _announce(2, "lemma4", elapsed)


def test_criterion_03_lemma5_projector_identities():
    """Idempotency x5, mutual orthogonality, both partitions; 20 random forms."""
    t0 = time.time()
    reports = lemma5_suite(2, 6, 20, 3001)
    assert [r.status for r in reports] == ["pass", "pass", "pass"]
    assert all(r.trials == 20 for r in reports)
    elapsed = time.time() - t0
    assert elapsed < 60
    _announce(3, "lemma5", elapsed)


def test_criterion_04_lemma6_ricci_trace():
    """R^{ijkl} omega_kl = 2 sigma^{ij} and sigma symmetric, l in {2,3}."""
    t0 = time.time()
    from sympspin.verify import lemma6_suite

    for l in (2, 3):
        rep = lemma6_suite(l, 20, 4000 + l)
        assert rep.status == "pass" and rep.trials == 20
    # the sampling above materializes the constraint spaces; record their
    # exact dimensions alongside
    assert [len(curvature_space_basis(l)) for l in (1, 2, 3)] == [3, 45, 210]
    assert [len(weyl_space_basis(l)) for l in (1, 2, 3)] == [0, 35, 189]
    _announce(4, "lemma6", time.time() - t0)


def test_criterion_05_lemma7_weyl_traces_and_section():
    """weyl_of is trace-free with the 4-term identity; ricci after sigma_tilde
    is the identity on symmetric matrices."""
    t0 = time.time()
    stream = RandomStream(5001)
    for _ in range(20):
        R = random_curvature(2, stream.next_int(0, 2**31 - 1))
        W = weyl_of(R)
        for mat in omega_traces(W).values():
            assert all(not x for row in mat for x in row)
        assert check_symmetries(W).extended_bianchi.holds
        sigma = RicciTensor.random(2, stream)
        assert ricci_of(sigma_tilde_of(sigma)) == sigma
    _announce(5, "lemma7", time.time() - t0)


def test_criterion_06_theorem9():
    """p22(action(sigma_tilde) phi) = 0: 20 random pairs, l=2, deg<=4, pad 6."""
    t0 = time.time()
    stream = RandomStream(6001)
    for _ in range(20):
        sigma = RicciTensor.random(2, stream)
        phi = random_spinor(2, 4, stream)
        assert verify_theorem9(sigma, phi).status == "pass"
    elapsed = time.time() - t0
    assert elapsed < 120
    _announce(6, "theorem9", elapsed)


def test_criterion_07_theorem10():
    """p20 and Y^2 of the trace-free action vanish: 20 random pairs, l=2."""
    t0 = time.time()
    stream = RandomStream(7001)
    for _ in range(20):
        W = random_weyl(2, stream.next_int(0, 2**31 - 1))
        phi = random_spinor(2, 4, stream)
        assert verify_theorem10(W, phi).status == "pass"
    _announce(7, "theorem10", time.time() - t0)


def test_criterion_08_corollary11_additivity_and_displays():
    """p2j(action R) = p2j(action sigma_tilde) + p2j(action W), and the
    literal display comparisons are recorded with explicit verdicts."""
    t0 = time.time()
    stream = RandomStream(8001)
    display_verdicts = set()
    for _ in range(20):
        R = random_curvature(2, stream.next_int(0, 2**31 - 1))
        phi = random_spinor(2, 4, stream)
        rep = verify_corollary11(R, phi)
        assert rep.status == "pass"
        for d, verdict in zip(SUITES["corollary11"].displays, rep.displays, strict=True):
            display_verdicts.add((d.name, *verdict))
    # explicit match/mismatch records exist; the mismatches do not fail the
    # suite (rep.status stayed "pass" above)
    assert display_verdicts == {
        ("p20-display", False, True),
        ("p21-display", False, True),
        ("p22-display", False, True),
    }
    _announce(8, "corollary11", time.time() - t0)


def test_criterion_09_symbol_complex():
    """p22(xi ^ p10(eta)) = 0 for 50 random pairs at l=2, plus a recorded
    nonzero witness for the p11 negative control."""
    t0 = time.time()
    main, negative = symbol_complex_suite(2, 4, 50, 9001)
    assert main.status == "pass" and main.trials == 50
    assert negative.status == "pass" and negative.witness is not None
    _announce(9, "symbol-complex", time.time() - t0)


def test_criterion_10_fedosov_flat_model():
    """5 random polynomial connections (deg<=2, l=2), 5 points each: all four
    symmetry identities hold exactly and the decomposition is exact."""
    t0 = time.time()
    reports = fedosov_suite(2, 10001, n_connections=5, n_points=5, degree=2)
    assert [r.status for r in reports] == ["pass", "pass", "pass"]
    assert all(r.trials == 25 for r in reports)
    _announce(10, "fedosov", time.time() - t0)


def test_criterion_11_equivariance():
    """[sp_action(A), X] = 0 and [sp_action(A), Y] = 0 for 10 random A, l=2."""
    t0 = time.time()
    rep = equivariance_suite(2, 3, 10, 11001)
    assert rep.status == "pass" and rep.trials == 10
    _announce(11, "equivariance", time.time() - t0)


# sha256 of the default JSON report with every elapsed_ms zeroed, dumped with
# indent=2 and sorted keys: the behaviour contract a refactor must keep.
DEFAULT_REPORT_SHA256 = "9768a4dd266916aba721d092f0311932eec1781ed871b6b2a476aa842106da84"


def test_criterion_12_full_cli_run():
    """Default CLI configuration finishes within budget, exits clean and
    reproduces the recorded default report."""
    t0 = time.time()
    report = run_suite(RunConfig(format="json"))   # format only affects emission
    elapsed = time.time() - t0
    assert report.overall == "pass"
    assert len(report.checks) >= 9
    assert elapsed < 300
    obj = report.to_json()
    for check in obj["checks"]:
        check["elapsed_ms"] = 0
    digest = hashlib.sha256(json.dumps(obj, indent=2, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_REPORT_SHA256
    _announce(12, "cli-default", elapsed)
