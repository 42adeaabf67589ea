"""Package metadata for ``repro``; the only build configuration there is.

The environment this reproduction targets may lack the ``wheel`` package
(and network access to fetch it), in which case ``pip install -e .``
cannot build a PEP 660 editable wheel.  ``python setup.py develop`` works
with bare setuptools.  Running from a checkout needs no install at all:
``PYTHONPATH=src``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing ``repro`` would pull in the whole stack.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
