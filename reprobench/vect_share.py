"""Print paper Table 4's %Vect of every trace in a trace-cache directory.

Usage::

    PYTHONPATH=src python3 reprobench/vect_share.py CACHE_DIR

%Vect is vector element operations over element operations plus scalar
instructions, the paper's definition (see
``repro.workloads.characteristics``).  Output is one JSON object,
``{program name: percent}``, for the single-thread traces.
"""

import json
import sys
from pathlib import Path

from repro.functional.trace import load_trace


def main(cache_dir: str) -> int:
    shares = {}
    for path in sorted(Path(cache_dir).glob("traces/*/*-t1.trace.npz")):
        trace = load_trace(path)
        c = trace.merged_counts()
        ops = c["element_ops"] + c["scalar"]
        shares[trace.program_name] = 100.0 * c["element_ops"] / ops
    print(json.dumps(shares, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
