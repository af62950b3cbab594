"""Pin the reference outputs every benchmark op is checked against.

    python3 perfbench/pin_references.py [--workload NAME ...]

For each input set, runs one untraced cycle of ops and writes
references/<workload>.json. Pin only on a commit whose outputs are known
good: a later change must reproduce these outputs bit for bit, so it is
checked against them, never re-pinned to match itself.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", nargs="*", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    args = p.parse_args(argv)
    run.load_program()
    from bench_workloads import INPUT_SETS, SETUPS, reference_path

    for workload in args.workload:
        outputs = []
        for s in range(INPUT_SETS):
            state = SETUPS[workload](s)
            try:
                cycle = []
                for i in range(state.cycle):
                    state.prepare(i)
                    cycle.append(state.op(i))
            finally:
                state.close()
            outputs.append(cycle)
            print(f"{workload} input_set={s} pinned {len(cycle)} outputs", file=sys.stderr)
        with open(reference_path(workload), "w") as fh:
            json.dump({"workload": workload, "input_sets": INPUT_SETS, "outputs": outputs}, fh, indent=0)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
