"""Write references/<output>-seed0.csv from this checkout's modop.

    python3 perfbench/make_references.py

The references are what check.py holds later runs to, so run this only
at a commit whose outputs are known to be right, and say why in the
change that updates them.
"""

import os

import run
from check import REFERENCE_DIR, reference_path
from workloads import WORKLOADS

SEED = 0


def main():
    run.load_modop()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    done = set()
    for workload in WORKLOADS.values():
        for segment in workload.segments:
            if segment.output in done:
                continue
            done.add(segment.output)
            text = segment.run(segment.setup(SEED), run.workdir())
            with open(reference_path(segment.output, SEED), "w", encoding="ascii") as fh:
                fh.write(text)
            print(f"wrote {os.path.relpath(reference_path(segment.output, SEED))}")


if __name__ == "__main__":
    main()
