"""Re-pin the output digests of every workload at the pinned seed.

Run only when a change is meant to alter the outputs (or a repetition's
size in ``workloads.py`` changed)::

    python3 perfbench/pin_digests.py

It plays one repetition of each workload at ``PINNED_SEED`` and rewrites
``perfbench/digests.json``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402,F401  -- holds BLAS at one thread, as the timed runs do
from workloads import PINNED_SEED, WORKLOADS, digest  # noqa: E402


def main() -> None:
    pinned = {}
    for name, workload in WORKLOADS.items():
        state = workload.build(workload.inputs(PINNED_SEED))
        outcome = workload.outcome(state, workload.run(state))
        pinned[name] = digest(outcome.outputs)
        print(f"{name}: {pinned[name]}")
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=2) + "\n")


if __name__ == "__main__":
    main()
