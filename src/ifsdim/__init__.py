"""Dimension theory toolkit for infinitely generated conformal IFS limit sets."""

from .cifs import (
    AxiomCheck,
    CifsSpec,
    ValidationReport,
    induce_parabolic,
    renyi_parabolic_spec,
    validate_cifs,
)
from .cloud import PointCloud, build_fixed_point_cloud, build_limit_cloud
from .errors import CloudSizeError, ConfigurationError, DomainError
from .maps import Composite, ComplexGaussBranch, GaussBranch, MapKind, RenyiBranch, Similarity
from .mobius import Disc
from .pressure import (
    DimensionResult,
    PressureProfile,
    build_sharp_family,
    finiteness_parameter,
    hausdorff_dimension,
    psi,
)

__version__ = "0.1.0"

from .estimator import (  # noqa: E402
    EstimateReport,
    assouad_dimension_estimate,
    assouad_spectrum_estimate,
    box_dimension_estimate,
    cover_count_1d,
    cover_count_2d,
    lower_spectrum_estimate,
)
from .jsonio import load_spec, spec_from_dict  # noqa: E402
from .spectra import (  # noqa: E402
    SpectrumCurve,
    default_theta_grid,
    f_value,
    fit_three_param,
    lower_bound_curve,
    phase_transition,
    slope_discontinuities,
    upper_envelope,
)
