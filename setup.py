"""Setuptools shim so `pip install -e .` works without the wheel package."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "AMCAD: Adaptive Mixed-Curvature Representation based Advertisement "
        "Retrieval System (ICDE 2022) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    entry_points={
        "console_scripts": ["repro=repro.pipeline.cli:main"],
    },
)
