"""Builds the optional compiled scanning kernel with a plain C compiler.

The package is fully functional without it: ``keyscan.scanning`` falls
back to the pure-Python kernel when the extension is missing, and
``optional=True`` lets the install go on when the build fails.
"""

from setuptools import setup
from setuptools.extension import Extension

setup(
    ext_modules=[
        Extension("keyscan._scankernel", ["src/keyscan/_scankernel.c"], optional=True)
    ]
)
