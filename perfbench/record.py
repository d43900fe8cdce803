"""Record the reference digests that run.py checks outputs against.

    python3 perfbench/record.py

Writes perfbench/digests.json: the sha256 of every `build` and `export
--what brackets|delta|rmatrix|pairing` output on the verify-grid
instances, of the rendered discrepancy report, and of the scalar canary.
Re-record only when a change of output is intended, and say so.
"""

from __future__ import annotations

import json
import sys

import run as bench


def main() -> int:
    bench.OUT.mkdir(exist_ok=True)
    trial = bench.Run(seconds=0)
    payload = {"instances": [[s, r] for s, r in bench.GRID],
               "outdir": str(bench.OUT),
               "discrepancies": str(bench.ROOT / "DISCREPANCIES.md")}
    digests = trial.run(bench.child_argv("digests", payload), "digests")
    scalars = trial.run(bench.child_argv("scalars", {
        "instances": payload["instances"], "seed": 0, "pairs": 1,
        "repeats": 1}), "scalars")
    if trial.failed:
        return 1
    result = json.loads(digests.stdout)
    if any(result["codes"].values()) or not result["discrepancies_match_file"]:
        print("error: an export failed or DISCREPANCIES.md is stale",
              file=sys.stderr)
        return 1
    recorded = {"exports": result["digests"],
                "scalar_canary": json.loads(scalars.stdout)["canary"]}
    with open(bench.HERE / "digests.json", "w", encoding="ascii") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
