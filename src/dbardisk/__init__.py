"""dbardisk: the dbar-energy of free-boundary disks in pseudoconvex domains.

Numerics for maps f: D -> R^{2n} with f(dD) on the boundary of a domain
{rho < 0}: partial energies, criticality diagnostics, second-variation
index forms with finite-difference oracles, holomorphic-variation
Morse-index certificates, and Levi-form classification.
"""

__version__ = "0.1.0"

from .diskmap import (  # noqa: F401
    DBAR_RAW_FACTOR,
    DiskGrid,
    DiskMap,
    EnergyReport,
    PolynomialMap,
    energies,
    homotopy_invariance_check,
    make_map,
)
from .geometry import (  # noqa: F401
    BoundaryPointData,
    DefiningFunction,
    apply_j,
    boundary_data,
    classify_pseudoconvexity,
    complex_hessian,
    make_domain,
)
from .criticality import (  # noqa: F401
    CriticalityReport,
    boundary_condition,
    conformality,
    harmonic_residual,
    is_critical,
)
from .secondvar import (  # noqa: F401
    GramSpectrum,
    LogCutoff,
    PolarPoly,
    VariationField,
    admissibility,
    admissible_basis,
    assemble_gram,
    fd_second_variation,
    index_form_complex,
    index_form_real,
)
from .holsec import (  # noqa: F401
    Certificate,
    build_U,
    certify_index,
    dbar_kernel_dimension,
)
from .harness import Report, ScenarioConfig, emit, run  # noqa: F401
