"""sympspin: exact symplectic spinor calculus with machine-verified identities.

The package computes over Q(i) with arbitrary-precision rationals, so every
identity check is an exact zero test.  See the README for the module map and
the CLI (`sympspin --help`) for the verification suites.
"""

from .exact import GaussianRational, RandomStream, nullspace_basis
from .symplectic import (
    SymplecticSpace,
    omega_partners,
    raise_lower_index,
    standard_symplectic_form,
)
from .spinors import (
    DegreeCapError,
    PolySpinor,
    SpLieElement,
    clifford_basis,
    sp_action,
)
from .forms import (
    SpinorForm,
    contract,
    op_H,
    op_X,
    op_Y,
    project,
    sp_action_form,
    wedge,
    wedge_covector,
)
from .curvature import (
    CurvatureTensor,
    RicciTensor,
    WeylTensor,
    check_symmetries,
    random_curvature,
    random_weyl,
    ricci_of,
    sigma_tilde_of,
    weyl_of,
)
from .connections import (
    CurvatureField,
    Poly,
    PolynomialConnection,
    check_connection_axioms,
    curvature_field_of,
    evaluate_curvature_at,
    random_connection,
)
from .verify import (
    ActionReport,
    spinor_curvature_action,
    verify_corollary11,
    verify_theorem9,
    verify_theorem10,
)

_CLI_NAMES = ("RunConfig", "SuiteReport", "emit_report", "run_suite")


def __getattr__(name):
    # Served on use: importing `.cli` here would make `python -m sympspin.cli`
    # find the module already imported, and runpy warns on stderr.
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
