#!/usr/bin/env python3
"""Build and run the dramstress end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) when needed,
then runs one workload; the last line of standard output is the result
JSON.  --smoke runs every workload at its smallest size, checks that every
metric BENCHMARK.json names is printed with its unit and that ok_frac is 1,
and that a perturbed reference drives ok_frac below 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2_planes", "table1_campaign")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dramstress sources next to perfbench/ (expected src/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run(binary, args, capture=False):
    """Run the benchmark binary from the checkout root; never leave it behind."""
    child = subprocess.Popen([binary] + args, cwd=ROOT,
                             stdout=subprocess.PIPE if capture else None)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    return child.returncode, (out.decode() if capture else "")


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for wl in WORKLOADS:
        base = ["--workload", wl, "--seed", "1", "--seconds", "1",
                "--size", "smoke"]
        for trace, rows in (("0", bench["end_to_end"]),
                            ("1", bench["per_layer"])):
            rc, out = run(binary, base + ["--trace", trace], capture=True)
            res = last_json(out) if rc == 0 else None
            if res is None:
                problems.append("%s trace %s: exit %d" % (wl, trace, rc))
                continue
            for row in rows:
                got = res["metrics"].get(row["name"])
                if got is None or got.get("unit") != row["unit"]:
                    problems.append("%s trace %s: %s missing or not in %s"
                                    % (wl, trace, row["name"], row["unit"]))
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace %s: outputs failed their check"
                                % (wl, trace))
            if trace == "0" and res["metrics"]["ok_frac"]["value"] != 1.0:
                problems.append("%s: ok_frac %r != 1"
                                % (wl, res["metrics"]["ok_frac"]["value"]))
            print("%s trace %s: %d metrics, %d/%d ops ok"
                  % (wl, trace, len(res["metrics"]),
                     res["attempted"] - res["failed"], res["attempted"]))
        rc, out = run(binary, base + ["--trace", "0", "--perturb-reference"],
                      capture=True)
        res = last_json(out) if rc == 0 else None
        if res is None or res["correct"] or \
                res["metrics"]["ok_frac"]["value"] >= 1.0:
            problems.append("%s: a perturbed reference still passed" % wl)
        else:
            print("%s perturbed: ok_frac %.3f (the oracle rejects)"
                  % (wl, res["metrics"]["ok_frac"]["value"]))
    for p in problems:
        print("SMOKE FAIL: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required")
    binary = build()
    if a.smoke:
        return smoke(binary)
    rc, _ = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", a.trace])
    return rc


if __name__ == "__main__":
    sys.exit(main())
