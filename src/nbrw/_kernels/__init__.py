"""Kernel selection: the C extension ``_walk`` if built (``setup.py``
compiles ``_walk.c`` with any C compiler, without numpy), else the numpy
fallback, imported only then.  Both produce identical output.

Set NBRW_PURE_PYTHON=1 to force the fallback (used by the benchmark and
the equivalence tests).
"""

from __future__ import annotations

import os

try:
    from . import _walk as _compiled
except ImportError:
    _compiled = None


def available_engines() -> list[str]:
    return ["compiled", "python"] if _compiled is not None else ["python"]


def get_kernel(engine: str | None = None):
    """Return (name, sample_counts callable) for the requested engine.

    ``engine`` may be "compiled", "python", or None for the default, which
    prefers the compiled kernel unless NBRW_PURE_PYTHON is set.
    """
    if engine is None:
        engine = "python" if os.environ.get("NBRW_PURE_PYTHON") else "auto"
    if engine == "auto":
        engine = "compiled" if _compiled is not None else "python"
    if engine == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernel requested but the extension is not built")
        return "compiled", _compiled.sample_counts
    if engine == "python":
        from . import fallback

        return "python", fallback.sample_counts
    raise ValueError(f"unknown engine {engine!r}")
