"""Exact computation of integral form Macdonald polynomials, Jack
polynomials, and chromatic quasisymmetric functions, with every formula
cross-verified against the others."""

from .chromatic import (
    IdentityViolation,
    llt_g,
    llt_power_tilde,
    n_lambda,
    verify_plethysm,
    x_g,
    x_g_power,
    x_g_schur,
)
from .graphs import (
    AttackingData,
    UGraph,
    attacking_data,
    colorings,
    component_partition,
    hessenberg,
    sandwich_graphs,
)
from .jack import jack_chromatic, jack_knop_sahi, jack_power, jack_schur, wt_alpha
from .macdonald import (
    ift_enumerate,
    j_chromatic,
    j_hhl,
    j_power,
    j_schur,
    non_attacking_fillings,
    wt_mu,
    wt_p,
)
from .rings import AlphaPoly, InexactDivision, LaurentQT
from .shapes import (
    conjugate,
    n_stat,
    parse_partition,
    partitions_of,
)
from .symfunc import (
    SymFunc,
    convert,
    kostka,
    omega,
    z_of,
)
from .verify import VerifyReport, run_conjecture, run_suite, run_suites

__version__ = "0.1.0"
