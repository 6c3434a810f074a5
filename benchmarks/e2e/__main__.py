"""``python -m benchmarks.e2e``: the same command as ``benchmarks/e2e/run.py``."""

import sys
from pathlib import Path

# The benchmark's modules import each other by plain name, as they do
# when run.py is started as a script.
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.exit(run.main(sys.argv[1:]))
