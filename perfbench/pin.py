#!/usr/bin/env python3
"""Regenerates perfbench/expected.txt, the benchmark's pinned scenario
file hashes and conformance digests.

Run from the repository root, only when a change is meant to alter the
workloads or the simulation's results:

    python3 perfbench/pin.py [FIRST_SEED LAST_SEED [WORKLOAD...]]

Each named workload (default: all) runs once per seed (default 0..20)
for the shortest time it allows; the `file` and `digest` lines it
prints replace that workload's pins, and other workloads keep theirs.
"""
import subprocess
import sys

WORKLOADS = ["scenario_library", "fleet_500", "campaign_service"]


def main():
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) >= 3 else (0, 20)
    workloads = sys.argv[3:] or WORKLOADS
    with open("perfbench/expected.txt") as f:
        kept = {
            line.strip() for line in f
            if (line.startswith("digest ") and line.split()[1] not in workloads)
            or (line.startswith("file ") and "scenario_library" not in workloads)
        }
    lines = set(kept)
    for workload in workloads:
        for seed in range(first, last + 1):
            out = subprocess.run(
                ["cargo", "run", "--release", "--offline", "--quiet",
                 "--manifest-path", "perfbench/Cargo.toml", "--",
                 "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                stdout=subprocess.PIPE, text=True, check=False).stdout
            for line in out.splitlines():
                tokens = line.split()
                if tokens[:1] == ["file"]:
                    lines.add(" ".join(tokens))
                elif tokens[:1] == ["digest"]:
                    lines.add(" ".join(tokens[:5]))
            print(f"pinned {workload} seed {seed}", file=sys.stderr)
    with open("perfbench/expected.txt", "w") as f:
        f.write("# Written by perfbench/pin.py; see README.md.\n")
        f.write("# file <path under scenarios/> <FNV-1a 64 of its bytes>\n")
        f.write("# digest <workload> <scenario> <seed> <digest_platform>\n")
        def order(line):
            t = line.split()
            return (t[0] != "file", t[1:3], int(t[3]) if t[0] == "digest" else 0)
        for line in sorted(lines, key=order):
            f.write(line + "\n")


if __name__ == "__main__":
    main()
