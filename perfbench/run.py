#!/usr/bin/env python3
"""Host-cost benchmark of the nvml simulator.  Run from the root of a
checkout:

  python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py compare A.log B.log
  python3 perfbench/run.py self-test

A run builds perfbench/bench.exe from the checkout with dune, runs it,
attaches the units declared in BENCHMARK.json, adds the peak resident
memory of the benchmark process, and prints as its last line
{"correct", "attempted", "failed", "metrics"}.  The line before it is the
run's stamp: host fingerprint and settings.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
PINS = os.path.join("perfbench", "pins.txt")
OUT = os.path.join("perfbench", "out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    for need in ("BENCHMARK.json", "dune-project", "lib"):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a full nvml checkout")
    # Keep dune's shared cache out of the user's home directory.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        die("build failed", 1)


def flambda():
    try:
        p = subprocess.run(
            ["ocamlfind", "ocamlopt", "-config-var", "flambda"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=30,
        )
        return p.stdout.strip() == "true"
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_bench(argv):
    """Run bench.exe; returns (exit code, stdout lines, peak RSS in MiB)."""
    proc = subprocess.Popen([BENCH] + argv, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def measure(workload, seed, seconds, trace, pins=PINS):
    """One benchmark run; returns (printed lines, result object, exit code
    of bench.exe)."""
    s = spec()
    declared = s["per_layer"] if trace else s["end_to_end"]
    code, lines, peak_mb = run_bench(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--pins", pins]
    )
    raw = None
    if lines:
        try:
            raw = json.loads(lines[-1])
        except ValueError:
            raw = None
    if raw is None or "values" not in raw:
        sys.stdout.write("\n".join(lines) + "\n")
        die(f"bench.exe exited with {code} without a result", 1)
    values = dict(raw["values"])
    if not trace:
        values["peak_rss_mb"] = peak_mb
    attempted, failed = raw["attempted"], raw["failed"]
    metrics = {}
    printed = []
    for m in declared:
        attempted += 1
        if m["name"] not in values:
            failed += 1
            printed.append(f"FAIL metric {m['name']} not reported")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for line in lines[:-1]:
        if line.startswith('{"stamp"'):
            stamp = json.loads(line)
            stamp["stamp"].update(
                flambda=flambda(),
                host=platform.node(),
                platform=platform.platform(),
                python=platform.python_version(),
            )
            line = json.dumps(stamp)
        printed.append(line)
    printed.append(
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} checked outputs)"
    )
    result = {
        "correct": code == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return printed, result, code


def load_runs(path):
    """Saved stdout of one or more runs -> {workload: {metric: [values]}}."""
    runs, current = {}, None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "stamp" in obj:
                current = obj["stamp"]["workload"]
            elif "metrics" in obj and current is not None:
                for name, m in obj["metrics"].items():
                    runs.setdefault(current, {}).setdefault(name, []).append(m["value"])
    return runs


def compare(path_a, path_b):
    """Rank every metric both result sets carry by relative change of its
    median, flag end-to-end metrics that got worse by more than their
    bound, and name the per-layer metric that moved most."""
    a, b = load_runs(path_a), load_runs(path_b)
    per_layer = {m["name"] for m in spec()["per_layer"]}
    e2e = {m["name"]: m for m in spec()["end_to_end"]}
    rows = []
    for wl in sorted(set(a) & set(b)):
        for name in sorted(set(a[wl]) & set(b[wl])):
            ma, mb = statistics.median(a[wl][name]), statistics.median(b[wl][name])
            if ma == mb:
                rel = 0.0
            elif ma == 0:
                rel = math.inf
            else:
                rel = (mb - ma) / abs(ma)
            rows.append((abs(rel), wl, name, ma, mb, rel))
    if not rows:
        die("the two result sets share no workload and metric")
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    print(f"{'workload':<14} {'metric':<34} {'A median':>14} {'B median':>14} {'change':>9}")
    for _, wl, name, ma, mb, rel in rows:
        flag = ""
        if name in e2e:
            worse = -rel if e2e[name]["better"] == "higher" else rel
            if worse > e2e[name]["bound"]:
                flag = "  worse than its bound"
        print(f"{wl:<14} {name:<34} {ma:>14.6g} {mb:>14.6g} {rel:>+9.1%}{flag}")
    moved = [r for r in rows if r[2] in per_layer and r[0] > 0]
    if moved:
        _, wl, name, _, _, rel = moved[0]
        print(f"moved most: layer {name.split('.')[0]} on {wl} ({name} {rel:+.1%})")
    else:
        print("moved most: no per-layer metric changed")


def self_test():
    """A planted wrong pin must make a run fail; the real pins must not."""
    build()
    with open(PINS) as f:
        lines = [l for l in f.read().splitlines() if l and not l.startswith("#")]
    os.makedirs(OUT, exist_ok=True)
    planted = os.path.join(OUT, "planted-pins.txt")
    ok = True
    for w in spec()["workloads"]:
        name = w["name"]
        mine = [l for l in lines if l.split()[0] == name]
        if not mine:
            print(f"self-test {name}: no pinned seed")
            ok = False
            continue
        wl, seed, key, value = mine[0].split()
        with open(planted, "w") as f:
            for l in lines:
                f.write((f"{wl} {seed} {key} {value}0" if l == mine[0] else l) + "\n")
        for pins, want_fail in ((PINS, False), (planted, True)):
            _, res, code = measure(name, int(seed), 1, 0, pins)
            if want_fail:
                good = res["failed"] > 0 and code != 0
            else:
                good = res["correct"] and code == 0
            ok = ok and good
            frac = res["failed"] / res["attempted"]
            label = "planted" if want_fail else "pinned"
            print(f"self-test {name} seed {seed} {label}: failed_frac {frac:.4g} "
                  f"exit {code} -> {'ok' if good else 'WRONG'}")
    os.remove(planted)
    sys.exit(0 if ok else 1)


def main():
    if sys.argv[1:2] == ["compare"]:
        if len(sys.argv) != 4:
            die("usage: run.py compare A.log B.log")
        compare(sys.argv[2], sys.argv[3])
        return
    if sys.argv[1:] == ["self-test"]:
        self_test()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    build()
    printed, result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(printed))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
