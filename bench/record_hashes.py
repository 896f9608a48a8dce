"""Record the metrics.csv sha256 of every workload and input set.

    python3 bench/record_hashes.py

Writes bench/expected_hashes.json, the reference the benchmark checks each
op against.  Run it only on a commit whose outputs are known to be right:
a perf-only change must reproduce these bytes, not re-record them.
"""

import json
import sys

import run
import workloads


def main() -> int:
    run.pin_threads()
    hetsgd = workloads.load_hetsgd()
    table = {}
    for workload in workloads.WORKLOADS:
        seeds = [0] if workload == "bundled" else range(workloads.INPUT_SEEDS)
        table[workload] = {}
        for seed in seeds:
            paths = workloads.prepare(hetsgd, workload, seed)
            outs = workloads.out_dirs(workload, paths, "record")
            workloads.op(hetsgd, workloads.parse(hetsgd, paths), outs)
            table[workload][str(seed)] = workloads.output_hashes(outs)
            print(workload, seed, table[workload][str(seed)], flush=True)
    workloads.EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
