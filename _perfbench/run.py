#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 _perfbench/run.py --workload hit-mix --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds the Go program in
_perfbench/ into .bench_build/ (the Go build cache lives there too, so
nothing outside the checkout is written), runs one workload in a fresh
process, and passes its output and exit status through. The last line of
output is the JSON result. --workload all runs every workload in turn,
each in its own process, and ends with one JSON line whose metrics are
keyed <workload>.<metric>.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["hit-mix", "cold-mix", "ml-stencil"]


def main(argv):
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOENV="off",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = list(argv)
    workload, seed = None, "1"
    for i, a in enumerate(args[:-1]):
        if a.lstrip("-") == "workload":
            workload = args[i + 1]
        if a.lstrip("-") == "seed":
            seed = args[i + 1]
    extra = []
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        extra = ["--spans", os.path.join(out, "spans", "%s-seed%s.json" % (workload, seed))]

    if workload != "all":
        return subprocess.run([binary] + args + extra, env=env).returncode

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in WORKLOADS:
        wargs = [w if a == "all" else a for a in args]
        spans = []
        if extra:
            spans = ["--spans", os.path.join(out, "spans", "%s-seed%s.json" % (w, seed))]
        proc = subprocess.run([binary] + wargs + spans, env=env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
