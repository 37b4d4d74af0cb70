"""Generalized tomographic marginals.

Forward marginal transforms of densities over families of hyperplanes,
diffeomorphism-deformed surfaces and shifted quadrics, the matching
oscillatory-kernel inversions, and Monte-Carlo / closed-form oracles for
validating both.
"""

from .core import (DimensionMismatchError, GaussianMixture, GridError,
                   GridSpec, Phantom, ScalarField, TomogramFamily,
                   UniformBall, UniformBox, gaussian, l2_rel_error, make_grid,
                   sample_phantom, standard_gaussian, total_mass)
from .forward import (forward_binned, forward_binned_at, homogeneity_residual,
                      normalization_profile, pullback_density)
from .geometry import (CircleDescriptor, Deformed, Diffeomorphism, Hybrid,
                       Hyperplane, HyperbolaDescriptor, LevelFamily,
                       LineDescriptor, Quadric, QuadricClass, QuadricForm,
                       SingularPointError, axis_inversion, circle_descriptor,
                       circle_family, classify_quadric, conformal_inversion,
                       finite_difference_jacobian, hyperbola_descriptor,
                       hyperbola_family, hyperboloid_family, hyperboloid_map,
                       identity_map, is_singular, jacobian_weight,
                       level_value)
from .inverse import (CharacteristicSlice, InversionDiagnostics,
                      RoundtripReport, characteristic_slice, invert_for_family,
                      roundtrip)
from .oracle import (Gaussian1D, MCTomogram, chi_square_density,
                     disk_chord_tomogram, gaussian_hyperplane_tomogram,
                     mc_tomogram)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
