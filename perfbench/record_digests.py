"""Record the sha256 digest of each workload's JSON report for given seeds.

    python3 perfbench/record_digests.py SEED [SEED ...]

Runs the CLI once per workload and seed, checks the report as the
benchmark does, and stores its digest in perfbench/digests.json under the
search backend that ran.  The benchmark then fails any run at those seeds
whose report is not byte-identical to the recorded one.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import DIGESTS, Runner, prepare
from workloads import WORKLOADS


def main(seeds: list[int]) -> int:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for workload in WORKLOADS:
        for seed in seeds:
            job, environment = prepare(workload, seed, tiny=False)
            runner = Runner(job, seed, tiny=False, backend=environment["backend"])
            proc, _ = runner.cli_run()
            if runner.failures:
                print(f"{workload} seed {seed}: {runner.failures[0]}", file=sys.stderr)
                return 1
            digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
            table.setdefault(environment["backend"], {}).setdefault(workload, {})[str(seed)] = digest
            print(workload, seed, digest)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
