"""Entry point of ``python -m bench``; see :mod:`bench.cli`.

Pins the numeric libraries to one thread before anything imports them and
puts the checkout's ``src`` on the path, so the command runs from a plain
source checkout with no install step.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

if __name__ == "__main__":
    try:
        import repro  # noqa: F401  (fail fast outside a full checkout)
    except ImportError as exc:
        print(f"bench: cannot import the repro package from {_SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    from bench.cli import main

    sys.exit(main())
