"""Build script: compiles the optional walk-sampling extension.

The package works without the extension (a vectorized numpy fallback is
selected at import time); building it just makes batch sampling faster.
The extension is plain C, so any C compiler builds it, and a build
without a working compiler still succeeds, without it.
"""

import numpy
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "nbrw._kernels._walk",
            ["src/nbrw/_kernels/_walk.c"],
            include_dirs=[numpy.get_include()],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
            optional=True,
        )
    ]
)
