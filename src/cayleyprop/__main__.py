"""Console entry point: `python -m cayleyprop` and the `cayleyprop` script.

Outputs are byte-for-byte reproducible only on one BLAS thread (on two
OpenBLAS threads a sweep CSV can differ in its last printed digit), so the
BLAS thread-count variables default to 1 here, before numpy loads. A value
the caller set is kept.
"""

import os
import sys

from . import BLAS_THREAD_VARS


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
