"""Tests of the top-level public API surface.

A downstream user should be able to work from ``import repro`` alone; these
tests pin the re-exports, the version string, and the doctest-style snippets
used in the README.
"""

import os
import pkgutil
import subprocess
import sys
import warnings

import pytest

import repro

#: ``repro`` and every subpackage, for the NumPy-free star-import check.
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


class TestPublicApi:
    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_the_packaging_metadata_reads_the_package_version(self):
        """``pyproject.toml`` takes its version from ``repro.__version__``,
        so installed metadata and code cannot disagree."""
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
            metadata = pyprojecttoml.read_configuration(
                os.path.join(root, "pyproject.toml")
            )
        assert metadata["project"]["version"] == repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing attribute {name}"

    def test_core_types_exported(self):
        for name in ("FlexOffer", "EnergySlice", "TimeSeries", "Assignment",
                     "FlexOfferKind", "FlexError", "InvalidFlexOfferError"):
            assert name in repro.__all__

    def test_all_eight_measures_exported(self):
        for name in (
            "TimeFlexibility", "EnergyFlexibility", "ProductFlexibility",
            "VectorFlexibility", "SeriesFlexibility", "AssignmentFlexibility",
            "AbsoluteAreaFlexibility", "RelativeAreaFlexibility",
        ):
            assert name in repro.__all__

    def test_readme_quickstart_snippet(self):
        f = repro.FlexOffer(1, 6, [(1, 3), (2, 4), (0, 5), (0, 3)])
        assert f.time_flexibility == 5
        assert f.energy_flexibility == 12
        assert repro.product_flexibility(f) == 60
        assert repro.vector_flexibility_norm(f, "l2") == 13.0

    def test_measure_keys_cover_the_paper(self):
        assert {"time", "energy", "product", "vector", "series",
                "assignments", "absolute_area", "relative_area"}.issubset(
            set(repro.measure_keys())
        )

    def test_docstring_quickstart_example(self):
        ev = repro.FlexOffer(23, 27, [(2, 4), (2, 4), (2, 4)], name="ev-charger")
        assert (ev.time_flexibility, ev.energy_flexibility) == (4, 6)
        assert repro.product_flexibility(ev) == 24


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_works_without_numpy(package):
    """``from <package> import *`` resolves every ``__all__`` name on a
    host without NumPy (hidden here through ``sys.modules``)."""
    source = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        f"from {package} import *\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    environment = {**os.environ, "PYTHONPATH": src}
    completed = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env=environment,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
