import functools
import inspect
import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

import gentomo
from gentomo import formats, forward


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


def test_compiled_sources_ship_beside_their_modules():
    """The sources the compiled helpers build from sit in the package, and
    in a source checkout pyproject's package-data matches them."""
    package = Path(gentomo.__file__).parent
    sources = (forward._KERNEL_SOURCE, formats._FORMATTER_SOURCE)
    for source in sources:
        assert source.parent == package
        assert source.is_file()
    pyproject = package.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("an installed package: no pyproject.toml beside it")
    tomllib = pytest.importorskip("tomllib")
    shipped = tomllib.loads(pyproject.read_text())["tool"]["setuptools"][
        "package-data"]["gentomo"]
    for source in sources:
        assert any(fnmatch(source.name, pattern) for pattern in shipped)


def test_readme_keywords_are_parameters():
    """Every ``kw=`` inside a backticked call of a public ``gentomo`` name
    in README.md is a parameter of that callable, so the README cannot keep
    a keyword the code no longer takes."""
    readme = Path(gentomo.__file__).parents[2] / "README.md"
    if not readme.is_file():
        pytest.skip("an installed package: no README.md beside it")
    text = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    checked = []
    for name, args in re.findall(r"`(?:gentomo\.)?([A-Za-z_][\w.]*)"
                                 r"\(([^`]*)\)`", text):
        head, *attrs = name.split(".")
        if head not in gentomo.__all__:
            continue
        params = inspect.signature(functools.reduce(
            getattr, attrs, getattr(gentomo, head))).parameters
        for kw in re.findall(r"(\w+)=(?!=)", args):
            assert kw in params, f"README passes {kw}= to {name}"
            checked.append(f"{name}:{kw}")
    assert checked
