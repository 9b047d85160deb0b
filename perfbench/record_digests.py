"""Record reference_digests.json: for every workload and seeds 0-11, a
digest of each operation's input mapped to a digest of its output.

Run from the root of the checkout, only when an output change is intended:

    python3 perfbench/record_digests.py

Outputs are recorded only after they pass the benchmark's own checks.
"""

from __future__ import annotations

import json
import sys

from checks import digest
from run import REFERENCE, load_package
from workloads import WORKLOADS

SEEDS = range(12)


def main() -> int:
    api = load_package()
    refs: dict[str, dict[str, str]] = {}
    for name, wl in sorted(WORKLOADS.items()):
        table = refs.setdefault(name, {})
        for seed in SEEDS:
            for item in wl.build(api, seed):
                got = wl.run(api, item)
                problem = wl.check(item, got)
                if problem:
                    raise SystemExit(f"{name} seed {seed} {item.key}: {problem}")
                table[item.key] = digest(got.out)
            print(f"{name} seed {seed}: {len(table)} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
