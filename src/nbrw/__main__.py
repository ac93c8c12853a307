"""Process entry of ``python -m nbrw`` and of the installed ``nbrw`` command.

Before numpy loads, OpenBLAS gets one thread unless ``OPENBLAS_NUM_THREADS``
is set: its only threaded call is a dense solve of at most 1,536 unknowns,
and its spinning pool costs every process more than that saves.  The
collector stays off for the whole run: a command leaves about a thousand
unreachable objects or fewer, while collections during numpy's import
cost several milliseconds.  Everything is frozen before exit so that
teardown does not walk it.  ``cli.main`` has no process-level side effects.
"""

import gc
import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    from . import cli

    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
