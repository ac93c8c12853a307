"""Kernel selection: the C extension ``_walk`` if built (``setup.py``
compiles ``_walk.c`` with any C compiler, without numpy), else its numpy
twins in ``fallback``, imported only then.  Both produce identical output.

Set NBRW_PURE_PYTHON=1 to select the fallback by default: for the sampler
and for every dart table, a ``Graph``'s included (used by the benchmark and
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


def _engine(engine: str | None):
    """``(name, module)`` of ``engine``: "compiled", "python", or None for
    the default, which prefers the compiled kernel unless NBRW_PURE_PYTHON
    is set."""
    if engine is None:
        engine = "python" if os.environ.get("NBRW_PURE_PYTHON") or _compiled is None else "compiled"
    if engine == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernel requested but the extension is not built")
        return engine, _compiled
    if engine == "python":
        from . import fallback

        return engine, fallback
    raise ValueError(f"unknown engine {engine!r}")


def get_kernel(engine: str | None = None):
    """Return (name, sample_counts callable) for the requested engine:
    "compiled", "python", or None for the default."""
    name, module = _engine(engine)
    return name, module.sample_counts


def walk_tables(vertex_count: int, paired: int, tails):
    """The verdict and the dart tables of the graph whose darts have these
    tails, from the builder of the default engine: ``_walk.c``'s, or its
    twin :func:`nbrw._kernels.fallback.walk_tables`, which says what each
    table holds.  Both return the same bytes, in bytes or in numpy arrays."""
    return _engine(None)[1].walk_tables(vertex_count, paired, tails)
