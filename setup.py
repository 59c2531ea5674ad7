"""Legacy setup shim.

The execution environment for this reproduction is fully offline and lacks
the ``wheel`` package, which PEP 517 editable installs require.  Keeping a
``setup.py`` (and no ``[build-system]`` table in pyproject.toml) lets
``pip install -e .`` fall back to ``setup.py develop``, which works with
setuptools alone.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "MCBound reproduction: online characterization and classification "
        "of memory/compute-bound HPC jobs (SC 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
