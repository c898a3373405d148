#!/usr/bin/env python3
"""Check CI's pinned commands: `python scripts/pinned_outputs.py` (stdlib only, no flags). Each row
runs from the repo root as `python <command>` with PYTHONPATH=src and must keep its exit code, time
bound and SHA-256s. Every row runs and prints one line; the exit code is 1 if any row missed."""
import os
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Pin(NamedTuple):
    name: str
    command: str  # the argv after `python`, split on spaces (no argument holds one)
    seconds: float  # time bound: a hung row prints MISS, not a stalled job
    code: int  # expected exit code; 1 is the audit's FAIL verdict
    stdout_sha256: str
    csv_sha256: str | None = None  # if set, the row runs with `--out FILE` and pins FILE too


CLI = "-m mmsfair.cli"
CENSUS = "scripts/condition_census.py --denominator 12 --max-items 12"
# Sixteen near-equal items: the four audits, mms at 2/10 and 3/7, and 3/7 again at 10^30 scale.
HUNT = (1000029, 1000003, 1000011, 1000026, 1000036, 1000018, 1000034, 1000039,
        1000019, 1000014, 1000027, 1000027, 1000050, 1000032, 1000029, 1000048)
HUNT_ITEMS = ",".join(map(str, HUNT))
HUGE_ITEMS = ",".join(str(10**30 + v - 10**6) for v in HUNT)
HALVES = "0,1,2,3,4,5,6,7;8,9,10,11,12,13,14,15"
GRID = "2/5,3/5;3/5,1/5,1/5;1/2,1/2;1/3,1/3,1/3;74/100,26/100"


def audit(entitlements: str, allocation: str = HALVES) -> str:
    return (f"{CLI} audit --items {HUNT_ITEMS} --entitlements {entitlements}"
            f" --allocation {allocation} --max-parts 16 --json")


PINS = (
    Pin("Condition census script (README example)", CENSUS,
        5, 0, "9b711e1a6821d9fe8abd8e4461e244b70fd3a5206b1f79256bf996dcadb6b3a4"),
    Pin("Condition census script with survivors", f"{CENSUS} --show-survivors",
        5, 0, "3e872120ec0b812740d489eed53d59c56de7a9d4ab98d10e66f0ca674d517828"),
    Pin("Pair filtration at 20,000 items within 5 s (a quadratic filter fails it)",
        f"{CLI} pairs --entitlement 137/262 --items-count 20000 --json",
        5, 0, "e9e874d1b67657b445f04cc02147b299eabe9198d44c4c8e687a7e1ea16db1ad"),
    Pin("Full pair trace at 2,000 items (every credit, q and r)",
        f"{CLI} pairs --entitlement 137/262 --items-count 2000 --trace --json",
        5, 0, "12b1ce25c5a35121525bea98ba2f49e8559418831594f0b0808ca09c7b6313f1"),
    Pin("Sixteen-item audit at 2/9, 7/9 within 1 s (value-only shares)", audit("2/9,7/9"),
        1, 1, "8ef54f31d57d8e501d44318899b1bb465884748acbac3066f6fc975199cfee4b"),
    Pin("Sixteen-item audit of a tied vector within 2 s (WMMS is the 1-out-of-4 share past the"
        " oracle's reach)", audit("1/4,1/4,1/4,1/4", "0,4,8,12;1,5,9,13;2,6,10,14;3,7,11,15"),
        2, 1, "b64d6cccb8be827e8824723b6368baca5754554b873e3d4c4cbc71401f49ea0f"),
    Pin("Sixteen-item audit at 3/7, 4/7 within 2 s (l >= 2 value-only shares past the oracle's"
        " reach)", audit("3/7,4/7"),
        2, 1, "260cdc217087a467e6d72fcc56415b4706dd875b75bfbd6f63126dd6ce5d6677"),
    Pin("Sixteen-item audit at 2/7, 5/7 within 2 s (the binding count cap at its exact share ends"
        " the l >= 2 searches)", audit("2/7,5/7"),
        2, 1, "1a2ca739204f243aea85f1409f6645549edbd6cd09cac9a2723ff3a4761ab32f"),
    Pin("Sixteen-item mms at 2/7 within 2 s (lex-first witness past the oracle's reach)",
        f"{CLI} mms --items 1342284,1109235,1954891,1142894,1898040,1889335,1253090,1642777,"
        "1004311,1452702,1244477,1529991,1955697,1579544,1418488,1330817 --pair 2/7 --json",
        2, 0, "2a5919092625d18c6175ce21f2da877c7fb4db1fc8c04f74fc84e41adf6a8d8c"),
    Pin("Sixteen-item mms at 2/10 within 5 s (tie-heavy lex-first witness, where equal-sum twins"
        " cut the most)", f"{CLI} mms --items {HUNT_ITEMS} --pair 2/10 --json",
        5, 0, "b441feae2e82e4ad255d4c5350a5df3458039a4321d544ae2848b685cc23fd16"),
    Pin("Sixteen-item mms at 3/7 within 5 s", f"{CLI} mms --items {HUNT_ITEMS} --pair 3/7 --json",
        5, 0, "9f8294db87d5a3cd22804f271d5db4b1d5c5f5e0fca35fc3645951f623805ef4"),
    Pin("The same sixteen items at 10^30 scale, mms at 3/7 within 5 s (near-equal items searched"
        " at a small base)", f"{CLI} mms --items {HUGE_ITEMS} --pair 3/7 --json",
        5, 0, "a5ce810b3c35f7adb3336ff36ac5ed5e653ca55aac148c771a6d2373c944d5dd"),
    Pin("Default-grid scan within 10 s (summary and every row)",
        f"{CLI} scan --max-items 5 --values 0,7,19,31,60 --entitlements {GRID} --json",
        10, 0, "245c351653ae3ad5f680437b70930b240e126e7fcc1e41895d5c8a5387d5ad7f"),
    Pin("Sampled scan within 10 s (40 of the default grid's 251 multisets, the path scan-sweep"
        " runs)", f"{CLI} scan --max-items 5 --values 0,7,19,31,60 --entitlements {GRID}"
        " --max-instances 40 --seed 3 --json",
        10, 0, "2f80c89afe7de9f9915c2d8a4796e0289c217faaae2ebc1bfda9877e4d122ca0"),
    Pin("README experiments scan within 10 s (summary and CSV)",
        f"{CLI} scan --max-items 3 --values 0,1,2,40,60 --entitlements {GRID} --json",
        10, 0, "6f2ba7db4867e1c2a99eca7dd808859ce641f80d0499a51afb30b6ae38d4e758",
        "188f058c28d4dc9871423286745d83ab89f7d4f71b6af863c972d52e2168591d"),
)


def check(pin: Pin, csv: Path) -> bool:
    """Run one row, print its line and say whether it passed."""
    argv = [sys.executable, *pin.command.split(), *(["--out", str(csv)] if pin.csv_sha256 else [])]
    started = time.perf_counter()
    try:
        run = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
                             stdout=subprocess.PIPE, timeout=pin.seconds)
    except subprocess.TimeoutExpired:
        code, digests = "timeout", []
    else:
        code, digests = run.returncode, [sha256(run.stdout).hexdigest()]
        if pin.csv_sha256:
            digests.append(sha256(csv.read_bytes()).hexdigest() if csv.exists() else "no CSV")
    ok = code == pin.code and digests == [d for d in (pin.stdout_sha256, pin.csv_sha256) if d]
    print(f"{'ok  ' if ok else 'MISS'}  exit {code} {time.perf_counter() - started:6.2f} s  "
          f"{' '.join(digests)}  {pin.name}", flush=True)
    return ok


def main(pins: tuple[Pin, ...] = PINS) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        missed = [pin.name for i, pin in enumerate(pins) if not check(pin, Path(tmp) / f"{i}.csv")]
    print(f"{len(pins) - len(missed)} of {len(pins)} pinned outputs hold")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
