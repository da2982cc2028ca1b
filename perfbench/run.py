#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # one trace per workload
    python3 perfbench/run.py --selftest   # the benchmark's helper tests

Run from the repository root. Builds perfbench/ (which pulls in ../src) into
$CARGO_TARGET_DIR, default .bench_build, then runs the benchmark binary. Its
report goes to stdout; the last line is one JSON object with the keys
correct, attempted, failed and metrics, holding the BENCHMARK.json
end_to_end metrics (--trace 0) or per_layer metrics (--trace 1).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                         os.path.join(ROOT, ".bench_build")))
    build_dir = os.path.join(out, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out, build_dir


def source_id():
    """Git commit when the tree is a repository, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def golden_args():
    args = []
    for k, name in (("4", "run_results.txt"), ("8", "run_results_k8.txt")):
        path = os.path.join(ROOT, "tests", "golden", name)
        if os.path.isfile(path):
            args += ["--golden", f"{k}:{path}"]
        else:
            print(f"perfbench: no golden fixture {path}; pinned cells "
                  "unchecked", file=sys.stderr)
    return args


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        _, build_dir = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")])
                 .returncode)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out, build_dir = build(["perfbench"])
    exe = os.path.join(build_dir, "perfbench")
    if a.smoke:
        sys.exit(subprocess.run([exe, "--smoke", "--seed", str(a.seed)]
                                + golden_args()).returncode)
    if not a.workload:
        fail("--workload is required")

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--commit", source_id()] + golden_args()
    if a.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{a.workload}-seed{a.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}", proc.returncode)
    marker = "PERFBENCH_RESULT "
    lines = [l for l in proc.stdout.splitlines() if l.startswith(marker)]
    if len(lines) != 1:
        fail("perfbench printed no result")
    result = json.loads(lines[0][len(marker):])
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing from the result",
                 1)
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
