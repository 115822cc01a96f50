#!/usr/bin/env python3
"""Build the campaign benchmark from source and run it.

From the root of a checkout:

    python3 campbench/run.py --workload hunt|reduce|bisect --seed N --seconds S --trace 0|1
    python3 campbench/run.py --selfcheck

The first form builds campbench/main.exe with dune and runs it; its last
line of output is the JSON result.  The second checks that the exact counts
repeat across two runs of every workload and that the reference computation
links nothing but the standard library.
"""

import json
import os
import re
import subprocess
import sys

EXE = os.path.join("_build", "default", "campbench", "main.exe")
REF_LIB = os.path.join("_build", "default", "campbench", "ref", "campbench_ref.cmxa")
WORKLOADS = ["hunt", "reduce", "bisect"]

# Metrics that are counts of work done: equal inputs must give equal values.
EXACT_END_TO_END = ["pipelines", "reduced_size"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("campbench: run this from the root of the repository "
                         "(dune-project and lib/ are missing here)\n")
        return 2
    # the shared dune cache lives outside the checkout; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(["dune", "build", "--root", ".", "./campbench/main.exe"],
                          stdout=sys.stderr, env=env)
    return done.returncode


def run(args):
    out = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def exact_counts(result, trace):
    metrics = result["metrics"]
    if trace == "0":
        names = EXACT_END_TO_END
    else:
        names = [n for n, m in metrics.items() if not m["unit"].startswith("ref_")]
    counts = {n: metrics[n]["value"] for n in names}
    counts["attempted"] = result["attempted"]
    counts["failed"] = result["failed"]
    return counts


def reference_imports():
    """Units the reference library imports, by ocamlobjinfo."""
    info = subprocess.run(["ocamlobjinfo", REF_LIB], stdout=subprocess.PIPE, text=True,
                          check=True).stdout
    return set(re.findall(r"^\t[0-9a-f-]{32}\t(\S+)$", info, re.M))


def selfcheck():
    ok = True
    imports = reference_imports()
    foreign = sorted(u for u in imports
                     if not re.match(r"(Stdlib|Camlinternal|Campbench_ref)", u))
    print(f"reference computation imports {len(imports)} units; outside the standard library: "
          f"{foreign or 'none'}")
    ok &= not foreign
    for workload in WORKLOADS:
        for trace in ["0", "1"]:
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            first, second = (exact_counts(run(args), trace) for _ in range(2))
            differ = sorted(n for n in first if first[n] != second[n])
            print(f"{workload} --trace {trace}: {len(first)} exact counts, "
                  f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
            ok &= not differ
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    status = build()
    if status != 0:
        return status
    if sys.argv[1:] == ["--selfcheck"]:
        return selfcheck()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
