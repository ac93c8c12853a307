"""Build script: compiles the optional walk-sampling extension.

The package works without the extension (a vectorized numpy fallback is
selected at import time); building it just makes batch sampling faster.
The extension is plain C on the Python C API alone, so any C compiler
builds it without numpy, and a build without a working compiler still
succeeds, without it.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("nbrw._kernels._walk", ["src/nbrw/_kernels/_walk.c"], optional=True)])
