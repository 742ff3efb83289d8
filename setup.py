"""Setuptools metadata for the ``repro`` package.

The package lives under ``src/`` and needs nothing beyond the standard
library at run time.  Without the ``wheel`` package, PEP 517 editable
installs (which build an editable wheel) are unavailable; the classic path
is ``pip install -e . --no-use-pep517 --no-build-isolation``.  The version
is read from ``src/repro/__init__.py``, its one source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
