"""Rewrite pinned.json from this checkout's gate outputs.

    python3 perfbench/pin.py

Run it only when a change is meant to alter program outputs; the gate
exists to show that an optimisation leaves them byte-identical.
"""

import json
import os
import sys

import run


def main():
    run.import_program()
    import workloads
    pinned = {}
    with workloads.workdir(run.ROOT) as wdir:
        for name, cls in workloads.WORKLOADS.items():
            _, _, combined, digests = run.run_gate(cls, os.path.join(wdir, name))
            pinned[name] = digests
            print("%s %s" % (name, combined))
    with open(run.PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
