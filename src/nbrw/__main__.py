"""Process entry of ``python -m nbrw`` and of the installed ``nbrw`` command.

Before numpy loads, OpenBLAS gets one thread unless ``OPENBLAS_NUM_THREADS``
is set: its only threaded call is a dense solve of at most 1,536 unknowns,
and its spinning pool costs every process more than that saves.  The
collector is off while the modules import; what they made is then frozen
out of later collections, and frozen again before exit so that teardown
does not walk it.  ``cli.main`` itself has no process-level side effects.
"""

import gc
import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    from . import cli

    gc.freeze()
    gc.enable()
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
