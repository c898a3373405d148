#!/usr/bin/env python3
"""Record the digests of the default seed's first pass of every workload.

    python3 perfbench/record_reference.py

Runs from the root of a checkout and rewrites reference_digests.json. Run
it only at a commit whose answers are known to be right: every later run
on the default seed compares the answers of the first pass against these
digests, so that answers stay byte-identical.
"""
from __future__ import annotations

import json

from checks import check, digest
from run import REFERENCE_FILE, REFERENCE_SEED, import_package
from workloads import WORKLOADS


def main() -> None:
    cli = import_package()
    digests = {}
    for name, workload in WORKLOADS.items():
        digests[name] = []
        for query in workload.make_pass(REFERENCE_SEED, 0):
            code, outputs = cli.execute(query.command, query.inputs)
            error = check(query, code, outputs)
            if error is not None:
                raise SystemExit(f"{name}: refusing to record a failing answer: {error}")
            digests[name].append(digest(code, outputs))
    REFERENCE_FILE.write_text(
        json.dumps({"seed": REFERENCE_SEED, "workloads": digests}, indent=1) + "\n"
    )
    print(f"wrote {sum(map(len, digests.values()))} digests to {REFERENCE_FILE.name}")


if __name__ == "__main__":
    main()
