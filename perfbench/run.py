"""Entry point: ``python3 perfbench/run.py --workload <name> [--seed n]
[--seconds s] [--trace 0|1] [--smoke]``, run from the repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
