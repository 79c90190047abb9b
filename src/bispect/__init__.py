"""Harmonic analysis on SU(2)/SO(3): transforms, bispectra, reconstruction."""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    SO3,
    SU2,
    EulerAngles,
    GroupElement,
    QuadratureRule,
    compose,
    from_euler,
    haar_quadrature,
    identity,
    inverse,
    random_element,
    rotation_matrix,
    to_euler,
)
from .wigner import wigner_all, wigner_matrix  # noqa: F401
from .clebsch import (  # noqa: F401
    CGDecomposition,
    cg_indices,
    clebsch_gordan,
    subgroup_projection,
    verify_coset_homomorphism,
)
from .harmonic import (  # noqa: F401
    CoefficientSet,
    SampledFunction,
    fourier_forward,
    fourier_inverse,
    random_bandlimited,
    translate,
)
from .sphere import (  # noqa: F401
    SphereFunction,
    rotate_sphere,
    sphere_grid,
    sphere_lift,
)
from .bispectrum import (  # noqa: F401
    BispectrumDescriptor,
    bispectrum_matrix,
    bispectrum_via_oracle,
    build_descriptor,
    descriptor_distance,
    support_closure_check,
    triple_correlation,
)
from .reconstruct import (  # noqa: F401
    AlignmentWitness,
    ReconstructionReport,
    check_sphere_witness,
    find_alignment,
    polar_decompose,
    positive_sqrt,
    reconstruct_so3,
    reconstruct_su2,
    signed_sqrt,
)
from .glyphs import (  # noqa: F401
    GlyphIndex,
    PlanarMotion,
    lift_image,
    match,
    planar_motion_to_rotation,
    synthetic_glyphs,
)
