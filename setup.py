"""Setuptools entry point (kept for legacy editable installs)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.25", "scipy>=1.9"],
)
