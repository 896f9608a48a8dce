"""Fresh-interpreter measurements, run by run.py as a child process.

    python3 bench/child.py setup <workload> <cfg>...     -> {"setup_s": ...}
    python3 bench/child.py ref-setup <workload> <cfg>... -> {"setup_s": ...}
    python3 bench/child.py op <workload> <cfg>...        -> {"maxrss_kb": ..., "hashes": [...]}

``setup`` times from before ``import hetsgd`` until validated configs and
built train/val splits exist; ``ref-setup`` does the same with the frozen
reference copy.  ``op`` runs one op and reports the peak resident memory of
the whole process.  The result is the last stdout line.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    mode, workload, paths = argv[0], argv[1], [Path(p) for p in argv[2:]]
    start = time.perf_counter()
    import workloads  # imports nothing from hetsgd or numpy by itself
    hetsgd = workloads.load_reference() if mode == "ref-setup" else workloads.load_hetsgd()
    if mode in ("setup", "ref-setup"):
        workloads.setup(hetsgd, paths)
        result = {"setup_s": time.perf_counter() - start}
    else:
        outs = workloads.out_dirs(workload, paths, "child")
        workloads.op(hetsgd, workloads.parse(hetsgd, paths), outs)
        result = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "hashes": workloads.output_hashes(outs)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
