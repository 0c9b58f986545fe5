#!/usr/bin/env python3
"""The repository benchmark: Stokes-solve and time-stepping workloads.

Run from the root of a checkout:

  python3 ptbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      one workload in a fresh process; the last line of stdout is the JSON
      result {"correct", "attempted", "failed", "metrics"}
  python3 ptbench/run.py [--seed N] [--seconds S] [--trace 0|1]
      every workload, one fresh process each, plus the cross-workload checks
  python3 ptbench/run.py compare PARENT_DIR CHANGE_DIR
      classify a change against its parent from >= 10 paired runs each
  python3 ptbench/run.py smoke [--binary PATH]
      tiny meshes, every metric present and finite, traces written

The first run in a checkout builds ptatin_bench into .bench_build/ (about a
minute). Runs use OMP_NUM_THREADS=2. Full results, with the host/build
fingerprint, are kept under .bench_build/results/ (or --out DIR). See
ptbench/README.md for the workloads, metrics and bounds.
"""
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "ptbench"
THREADS = 2
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1
DEFAULT_SECONDS = 12

# Final-state digests of the default seed at the default run length
# (information only: a legitimate numerical change moves them).
REFERENCE = {
    "stokes_sinker12": {"timed_ops": 3, "digest": "45b3ef5d"},
    "stokes_sinker12_decomp": {"timed_ops": 3, "digest": "0f1f8f83"},
    "steps_sinker12": {"timed_ops": 3, "digest": "15af6c44"},
    "steps_rifting": {"timed_ops": 3, "digest": "bfe4bfe7"},
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def run_checked(cmd, log_path, timeout, env=None):
    """Run cmd with output appended to log_path; kill its process group on
    timeout and wait for it. Returns the exit code."""
    with open(log_path, "ab") as out:
        out.write(("\n$ " + " ".join(map(str, cmd)) + "\n").encode())
        out.flush()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT, start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"timed out after {timeout} s: {cmd[0]} "
                             f"(log: {log_path})")


def tail(path, lines=30):
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def build():
    """Configure (once) and build ptatin_bench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("repository sources not found next to ptbench/; run "
                         "from the root of a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_ROOT / "build.log"
    if not (BUILD / "CMakeCache.txt").is_file():
        rc = run_checked(["cmake", "-S", PKG, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], build_log, 300)
        if rc != 0:
            raise BenchError("cmake configure failed:\n" + tail(build_log))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_checked(["cmake", "--build", BUILD, "--target", "ptatin_bench",
                      "-j", jobs], build_log, 850)
    if rc != 0:
        raise BenchError("build failed:\n" + tail(build_log))
    return BUILD / "ptatin_bench"


def fingerprint(build_info):
    """Host and build identity stamped on every result. Two results compare
    only when everything but git_sha matches."""
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            if key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    isa = [f for f in ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
                       "avx512vl", "avx512_fp16", "amx_tile") if f in flags]
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": model, "isa": " ".join(isa), "cpus": os.cpu_count(),
            "threads": build_info.get("threads"),
            "compiler": build_info.get("compiler"),
            "flags": build_info.get("flags"),
            "build_type": build_info.get("build_type"), "git_sha": sha}


def run_workload(binary, name, seed, seconds, trace, out_dir, smoke=False):
    """One workload in a fresh process. Returns the stamped result dict."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{name}-seed{seed}-trace{trace}-{time.time_ns()}"
    result_path = out_dir / f"{stamp}.json"
    cmd = [binary, "--workload", name, "--seed", seed, "--seconds", seconds,
           "--out", result_path]
    trace_dir = None
    if trace:
        trace_dir = out_dir / f"{stamp}.trace"
        cmd += ["--trace_dir", trace_dir]
    if smoke:
        cmd += ["--smoke", "true"]
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    run_log = out_dir / f"{stamp}.log"
    rc = run_checked(cmd, run_log, RUN_TIMEOUT_S, env=env)
    if rc != 0 or not result_path.is_file():
        raise BenchError(f"{name} exited with code {rc}:\n" + tail(run_log))
    result = json.loads(result_path.read_text())
    result["fingerprint"] = fingerprint(result.get("build", {}))
    result["trace_dir"] = str(trace_dir) if trace_dir else None
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def expected_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def check_metrics(result, spec, trace):
    """Problems with the reported metrics: missing, non-finite, wrong unit,
    or not declared in BENCHMARK.json."""
    got = result["layer" if trace else "e2e"]
    problems = []
    names = set()
    for m in expected_metrics(spec, trace):
        names.add(m["name"])
        v = got.get(m["name"])
        if v is None:
            problems.append(f"{m['name']}: missing")
        elif not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            problems.append(f"{m['name']}: not a finite number")
        elif v.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {v.get('unit')} != {m['unit']}")
    problems += [f"{k}: not declared in BENCHMARK.json" for k in got
                 if k not in names]
    return problems


def report(result, spec, trace):
    """Print the result by metric name; return the driver's JSON line."""
    problems = check_metrics(result, spec, trace)
    got = result["layer" if trace else "e2e"]
    fp = result["fingerprint"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={trace}  "
          f"threads={fp['threads']}  ops={result['ops']}  "
          f"failed={result['ops_failed']}")
    for m in expected_metrics(spec, trace):
        v = got.get(m["name"], {}).get("value")
        shown = f"{v:.6g}" if isinstance(v, (int, float)) else "MISSING"
        print(f"   {m['name']:<28} {shown:>14} {m['unit']}")
    for f in result.get("failures", []):
        print(f"   failed: {f}")
    for p in problems:
        print(f"   metric problem: {p}")
    info = result.get("info", {})
    ref = REFERENCE.get(result["workload"], {})
    if ("digest" in info and result["seed"] == DEFAULT_SEED
            and not result["smoke"] and ref.get("digest")
            and ref.get("timed_ops") == info.get("timed_ops")):
        same = "matches" if info["digest"] == ref["digest"] else "differs from"
        print(f"   state digest {info['digest']} {same} the default-seed "
              f"reference (information only)")
    print(f"   fingerprint: {json.dumps(fp, sort_keys=True)}")
    correct = result["ops"] >= 1 and result["ops_failed"] == 0 and not problems
    metrics = {m["name"]: got[m["name"]] for m in expected_metrics(spec, trace)
               if m["name"] in got}
    return {"correct": correct, "attempted": max(1, result["ops"]),
            "failed": result["ops_failed"], "metrics": metrics}


def parse_flags(argv, defaults):
    opts = dict(defaults)
    i = 0
    while i < len(argv):
        key = argv[i]
        if not key.startswith("--") or key[2:] not in opts or i + 1 >= len(argv):
            raise BenchError(f"unexpected argument {key!r}\n{__doc__}")
        opts[key[2:]] = argv[i + 1]
        i += 2
    return opts


def cmd_run(argv):
    opts = parse_flags(argv, {"workload": None, "seed": DEFAULT_SEED,
                              "seconds": DEFAULT_SECONDS, "trace": "0",
                              "out": None})
    spec = load_spec()
    trace = int(opts["trace"])
    if trace not in (0, 1):
        raise BenchError("--trace must be 0 or 1")
    seed, seconds = int(opts["seed"]), int(float(opts["seconds"]))
    declared = [w["name"] for w in spec["workloads"]]
    names = [opts["workload"]] if opts["workload"] else declared
    for name in names:
        if name not in declared:
            raise BenchError(f"unknown workload {name!r}; one of {declared}")
    out_dir = Path(opts["out"]) if opts["out"] else BUILD_ROOT / "results"
    binary = build()
    lines, results = {}, {}
    for name in names:
        results[name] = run_workload(binary, name, seed, seconds, trace,
                                     out_dir)
        lines[name] = report(results[name], spec, trace)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
        return 0
    # The decomposed solve differs from the global one only in rounding.
    a, b = results["stokes_sinker12"], results["stokes_sinker12_decomp"]
    parity = a["info"].get("iterations") == b["info"].get("iterations")
    print(f"== decomposition parity (same Krylov count): "
          f"{'ok' if parity else 'FAILED'}")
    print(json.dumps({"correct": parity and all(l["correct"] for l in
                                                 lines.values()),
                      "workloads": lines}))
    return 0


# --- compare ------------------------------------------------------------------

def load_results(path):
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() \
        else [Path(path)]
    out = []
    for f in files:
        try:
            r = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if r.get("schema") == "ptbench.result/1" and "fingerprint" in r \
                and not r.get("traced") and not r.get("smoke"):
            out.append(r)
    return out


MIN_PAIRS = 10


def comparable(result):
    """What two results must share to be compared: the fingerprint but the
    git sha, and the run length, which fixes the timed operations."""
    fp = {k: v for k, v in result["fingerprint"].items() if k != "git_sha"}
    fp["seconds"] = result["seconds"]
    return fp


def cmd_compare(argv):
    if len(argv) != 2:
        raise BenchError("usage: run.py compare PARENT_DIR CHANGE_DIR")
    spec = load_spec()
    parent, change = load_results(argv[0]), load_results(argv[1])
    if not parent or not change:
        raise BenchError("no untraced results found in one of the directories")
    ref = comparable(parent[0])
    for r in parent + change:
        fp = comparable(r)
        if fp != ref:
            diff = {k: (ref.get(k), fp.get(k)) for k in ref if ref.get(k) != fp.get(k)}
            print(f"refusing to compare: fingerprints or run lengths differ {diff}")
            return 2
    status = 0
    print(f"{'workload':<24} {'metric':<12} {'parent median [q1,q3]':>30} "
          f"{'change median [q1,q3]':>30} {'wins':>5}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        pairs = paired_runs(parent, change, name)
        if not pairs:
            print(f"{name:<24} no paired runs")
            continue
        for m in spec["end_to_end"]:
            pv = [p["e2e"][m["name"]]["value"] for p, _ in pairs]
            cv = [c["e2e"][m["name"]]["value"] for _, c in pairs]
            v = verdict(pv, cv, m)
            print(f"{name:<24} {m['name']:<12} {fmt_q(pv):>30} {fmt_q(cv):>30} "
                  f"{wins(pv, cv, m):>5.2f}  {v}")
            status = max(status, int(v == "regressed"))
        pf, cf = (sum(r[k]["ops_failed"] for r in pairs) /
                  max(1, sum(r[k]["ops"] for r in pairs)) for k in (0, 1))
        print(f"{name:<24} {'failed ops':<12} {pf:>30.4f} {cf:>30.4f} "
              f"{'':>5}  {'more failures' if cf > pf else 'no more failures'}")
        status = max(status, int(cf > pf))
    return status


def paired_runs(parent, change, name):
    """(parent, change) results of one workload with the same seed, paired
    in run order."""
    def by_seed(results):
        runs = {}
        for r in results:
            if r["workload"] == name:
                runs.setdefault(r["seed"], []).append(r)
        return runs
    p, c = by_seed(parent), by_seed(change)
    return [pair for seed in sorted(set(p) & set(c))
            for pair in zip(p[seed], c[seed])]


def quart(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[1], q[2]


def fmt_q(v):
    q1, med, q3 = quart(v)
    return f"{med:.4g} [{q1:.4g},{q3:.4g}]"


def better(a, b, m):
    return a < b if m["better"] == "lower" else a > b


def wins(pv, cv, m):
    """Share of pairs the change won; ties count for neither."""
    return sum(1 for p, c in zip(pv, cv) if better(c, p, m)) / len(pv)


def verdict(pv, cv, m):
    """improved / no-worse / regressed / unresolved, by the rules in
    ptbench/README.md."""
    if len(pv) < MIN_PAIRS:
        return f"unresolved ({len(pv)} pairs < {MIN_PAIRS})"
    p1, pmed, p3 = quart(pv)
    _, cmed, _ = quart(cv)
    if wins(pv, cv, m) >= 0.9 and abs(cmed - pmed) > (p3 - p1):
        return "improved"
    all_better = all(better(c, p, m) for c in cv for p in pv)
    if (p3 - p1) / pmed > m["bound"] and not all_better:
        return "unresolved (spread > bound)"
    worse = (cmed - pmed) / pmed * (1 if m["better"] == "lower" else -1)
    return "regressed" if worse > m["bound"] else "no-worse"


# --- smoke --------------------------------------------------------------------

def cmd_smoke(argv):
    opts = parse_flags(argv, {"binary": None, "out": None})
    spec = load_spec()
    binary = Path(opts["binary"]) if opts["binary"] else build()
    out = Path(opts["out"]) if opts["out"] else BUILD_ROOT / "smoke"
    failed = []
    t0 = time.time()
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            r = run_workload(binary, name, DEFAULT_SEED, 1, trace, out,
                             smoke=True)
            problems = check_metrics(r, spec, trace)
            if r["ops"] < 1 or r["ops_failed"] != 0:
                problems.append(f"ops={r['ops']} ops_failed={r['ops_failed']} "
                                f"{r.get('failures')}")
            if trace:
                problems += check_trace(Path(r["trace_dir"]), name)
            status = "ok" if not problems else "FAIL"
            print(f"smoke {name} trace={trace}: {status}")
            for p in problems:
                print(f"   {p}")
            if problems:
                failed.append(f"{name}/trace{trace}")
    print(f"smoke: {len(failed)} failed, {time.time() - t0:.1f} s")
    return 1 if failed else 0


def check_trace(trace_dir, name):
    path = trace_dir / "trace.json"
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return [f"trace.json unreadable: {e}"]
    events = doc.get("traceEvents", doc) if isinstance(doc, dict) else doc
    seen = {e.get("name") for e in events if isinstance(e, dict)}
    op_span = "bench.solve" if name.startswith("stokes") else "bench.step"
    wanted = [op_span, "bench.probe.kernel", "bench.probe.host"]
    return [f"trace.json lacks span {s}" for s in wanted if s not in seen]


def main(argv):
    try:
        if argv and argv[0] == "compare":
            return cmd_compare(argv[1:])
        if argv and argv[0] == "smoke":
            return cmd_smoke(argv[1:])
        return cmd_run(argv)
    except BenchError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
