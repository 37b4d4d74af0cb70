"""Generalized tomographic marginals.

Forward marginal transforms of densities over families of hyperplanes,
diffeomorphism-deformed surfaces and shifted quadrics, the matching
oscillatory-kernel inversions, and Monte-Carlo / closed-form oracles for
validating both.
"""

from types import ModuleType as _Module

from .core import (DimensionMismatchError, GaussianMixture, GridError,
                   GridSpec, Phantom, ScalarField, TomogramFamily,
                   UniformBall, UniformBox, gaussian, l2_rel_error, make_grid,
                   sample_phantom, standard_gaussian, total_mass)
from .forward import (forward_binned, forward_binned_at, normalization_profile,
                      pullback_density)
from .geometry import (Deformed, Diffeomorphism, Hybrid, Hyperplane,
                       LevelFamily, Quadric, QuadricForm, axis_inversion,
                       circle_family, conformal_inversion, hyperbola_family,
                       hyperboloid_family, hyperboloid_map, identity_map)
from .inverse import (CharacteristicSlice, InversionDiagnostics,
                      RoundtripReport, characteristic_slice, invert_for_family,
                      roundtrip)
from .oracle import (Gaussian1D, MCTomogram, chi_square_density,
                     disk_chord_tomogram, gaussian_hyperplane_tomogram,
                     mc_tomogram)

__version__ = "0.1.0"

# the names imported above; the submodules they come from are not listed
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _Module)))
