"""Record the dump digest of every positive input the workloads can draw.

    python3 perfbench/record.py

Run from the root of a checkout.  It rewrites perfbench/digests.json from
the program as it stands, so run it only where the program's output is
meant to change, and review the difference.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, import_package
from workloads import (DIGESTS, FILE_CLASSES, RULE_CLASSES, TAP_PAIRS, Construct,
                       Extract, Job, construct_requests, digest, rule_key, rule_text)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    gs = import_package()
    extract = Extract(gs, 0)
    construct = Construct(gs, 0)
    jobs = [(extract, Job("extract", rule_key(q, n, taps), rule_text(q, n, taps), q ** n))
            for q, n in RULE_CLASSES.values() for taps in TAP_PAIRS]
    jobs += [(extract, Job("extract", f"file {c}", extract.files[c], order))
             for c, order in FILE_CLASSES.items()]
    jobs += [(construct, Job("construct", req.key, (req, req.extension_indices()), req.order()))
             for req in construct_requests()]
    digests = {}
    for wl, job in jobs:
        result = wl.call(job)
        digests[job.key] = wl.digests[job.key] = digest(result[3])
        problem = wl.check(job, result)  # every other known answer must hold
        if problem:
            print(f"not recorded, {job.key}: {problem}", file=sys.stderr)
            return 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
