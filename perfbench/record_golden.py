#!/usr/bin/env python3
"""Record the answers of every pool document of the digest-checked workloads.

    python3 perfbench/record_golden.py

Run from the root of a source checkout whose answers are trusted; the
benchmark then fails any request whose answer differs from the one
recorded here.  Regenerate only when the pool itself changes.
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings
from pathlib import Path

from run import GOLDEN, import_impbox
from workloads import POOL, WORKLOADS, Doc, golden_expected


def main() -> int:
    import_impbox()
    warnings.simplefilter("ignore", UserWarning)
    golden = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        path = Path(tmp) / "doc.json"
        for workload in WORKLOADS.values():
            if workload.expected is not golden_expected:
                continue
            for generator, n in dict.fromkeys(workload.strata):
                for index in range(POOL):
                    doc = Doc(f"{workload.name}/{generator}/{n}/{index}", generator, n)
                    path.write_text(doc.text(), encoding="utf-8")
                    golden[doc.id] = workload.answer_key(doc, workload.request(str(path)))
                print(f"{workload.name} {generator} n={n}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
