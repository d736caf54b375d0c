#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny size; takes well under a minute.

    python3 perfbench/smoke.py

Checks, for every workload and both trace modes, that the run exits 0,
passes its output checks, and prints every metric that BENCHMARK.json
names, with the unit the benchmark reports, both in its table and in the
JSON result line.  Runs the traced mode twice and checks that every count
and ratio repeats exactly.  Also checks that a directory holding only
BENCHMARK.json and the benchmark exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _results(trace):
    """{workload: (JSON result, table text)} from one ``--workload all``."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--size", "tiny",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit("trace %d run exited %d:\n%s%s" % (
            trace, proc.returncode, proc.stdout, proc.stderr))
    out, table = {}, []
    for line in proc.stdout.splitlines():
        if line.startswith("workload "):
            name, table = line.split()[1], []
        elif line.startswith("{"):
            out[name] = (json.loads(line), "\n".join(table))
        else:
            table.append(line)
    return out


def _bare_dir_fails():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reduce",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(os.path.dirname(bare), ignore_errors=True)
    return proc.returncode != 0 and not proc.stdout.strip()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    traced = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        results = _results(trace)
        if trace:
            traced.append(results)
        for workload in (w["name"] for w in spec["workloads"]):
            if workload not in results:
                problems.append("%s: no result (trace %d)" % (workload,
                                                              trace))
                continue
            result, table = results[workload]
            if not result["correct"] or result["failed"]:
                problems.append("%s: checks failed" % workload)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append("%s trace %d: JSON metrics differ from "
                                "BENCHMARK.json %s" % (workload, trace, key))
            for name, unit in wanted.items():
                if not any(line.split()[:1] == [name] and
                           line.split()[2:3] == [unit]
                           for line in table.splitlines()):
                    problems.append("%s: %s [%s] not in the table"
                                    % (workload, name, unit))
    for workload, (first, _) in traced[0].items():
        second = traced[1][workload][0]["metrics"]
        for name, m in first["metrics"].items():
            exact = m["unit"] in ("count", "ratio", "bytes")
            if exact and m["value"] != second[name]["value"]:
                problems.append("%s: %s differs between traced runs"
                                % (workload, name))
    if not _bare_dir_fails():
        problems.append("a directory without the sources did not fail")
    for problem in problems:
        print("FAIL", problem)
    print("smoke: %s" % ("ok" if not problems else
                         "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
