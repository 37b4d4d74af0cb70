import gentomo


def test_public_surface():
    """The sorted names of ``gentomo.__all__``, submodules left out: a new
    public name is added here on purpose."""
    assert gentomo.__all__ == [
        "CharacteristicSlice", "Deformed", "Diffeomorphism",
        "DimensionMismatchError", "Gaussian1D", "GaussianMixture",
        "GridError", "GridSpec", "Hybrid", "Hyperplane",
        "InversionDiagnostics", "LevelFamily", "MCTomogram", "Phantom",
        "Quadric", "QuadricForm", "RoundtripReport", "ScalarField",
        "TomogramFamily", "UniformBall", "UniformBox", "axis_inversion",
        "characteristic_slice", "chi_square_density", "circle_family",
        "conformal_inversion", "disk_chord_tomogram", "forward_binned",
        "forward_binned_at", "gaussian", "gaussian_hyperplane_tomogram",
        "hyperbola_family", "hyperboloid_family", "hyperboloid_map",
        "identity_map", "invert_for_family", "l2_rel_error",
        "make_grid", "mc_tomogram", "normalization_profile",
        "pullback_density", "roundtrip", "sample_phantom",
        "standard_gaussian", "total_mass"]
