"""Setup shim.

The repository carries no ``pyproject.toml`` and declares no package
metadata: the library runs from a checkout with ``PYTHONPATH=src`` (see
the README's "Setup" section; its runtime dependencies — numpy, scipy
and networkx — are listed in ``requirements-dev.txt``).  This file only
marks the checkout as a setuptools project.
"""

from setuptools import setup

setup()
