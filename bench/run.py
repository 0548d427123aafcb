"""cogen benchmark: one command, two workloads, end-to-end or per-layer.

    python3 bench/run.py --workload synth --seed 0 --seconds 50 --trace 0

Run from the root of a checkout. `--trace 0` prints the end-to-end metrics
of BENCHMARK.json, measured with nothing patched. `--trace 1` runs the same
work twice, untraced and then traced, prints the per-layer metrics and writes
the spans to .bench_out/trace-<workload>-seed<seed>.jsonl. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("synth", "longctx"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = " ".join(str(blas.get(k, "")) for k in
                              ("name", "version", "openblas configuration")).strip()
    except (TypeError, KeyError):
        blas_build = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "cogen").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": " ".join(blas_build.split()),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(), "src_digest": digest.hexdigest()[:16],
    }


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def emit(values: dict, declared: list) -> dict:
    """Order and unit the measured values as BENCHMARK.json declares them."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def report(workload, seed, p, w) -> list:
    lines = [f"workload {workload} seed {seed}",
             "corpus " + " ".join(f"{k} {v:g}" for k, v in p.corpus.items())]
    t = p.train
    lines.append(f"train epochs {t['epochs']} joint steps {len(t['joint_step_s'])} "
                 f"steps {t['steps']} final loss {t['final_loss']:.6f}")
    lines.append(f"decode passes {p.decode_passes} turns {len(p.turn_s)} "
                 f"tokens {p.tokens} truncated {p.truncated_turns}")
    lines.append("quality " + " ".join(f"{k} {v:g}" for k, v in p.quality.items()))
    for name, n in w.sample_counts(p).items():
        lines.append(f"samples {name} {n}")
    return lines


def self_time_table(tr, top=20) -> list:
    rows = sorted(tr.self_times().items(), key=lambda kv: -kv[1][2])[:top]
    return [f"self {name:<32} calls {calls:>8} total_ms {total:>11.1f} self_ms {own:>11.1f}"
            for name, (calls, total, own) in rows]


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread unless the caller sets another count, before numpy
    # loads: on longctx a second thread doubled the CPU time at the same
    # wall time, and its spinning tied the timings to the load on a second core.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "cogen" / "__init__.py").is_file():
        print(f"bench: no cogen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w
    import cogen
    if Path(cogen.__file__).resolve().parent != (SRC / "cogen").resolve():
        print(f"bench: imported cogen from {cogen.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = spec()
    info = machine()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    untraced = w.Measured()
    runs = [untraced]
    try:
        runner = w.RUNNERS[args.workload]
        # a traced run times its work once, untraced and traced, and runs no
        # epoch again
        runner(work, args.seed, args.seconds, untraced,
               repeats=1 if args.trace else w.SETUP_REPEATS, rounds=0 if args.trace else None)
        if args.trace:
            traced = w.Measured()
            runs.append(traced)
            tr = w.traced(args.workload, work, args.seed, untraced, traced)
            traced.check(traced.train["epochs"] == untraced.train["epochs"]
                         and traced.tokens == untraced.tokens,
                         "the traced replay did not repeat the untraced run")
            values = w.per_layer(tr, traced, untraced)
            metrics = emit(values, bench["per_layer"])
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tr.write_jsonl(trace_path, {"workload": args.workload, "seed": args.seed,
                                        "machine": info}, values)
        else:
            metrics = emit(w.end_to_end(untraced), bench["end_to_end"])
    except Exception:
        traceback.print_exc()
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": max(1, failed), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    not_finite = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if not_finite:
        print(f"bench: metrics not finite: {not_finite}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": sum(r.attempted for r in runs),
                          "failed": sum(r.failed for r in runs) + 1, "metrics": {}}))
        return 1
    print("\n".join(report(args.workload, args.seed, untraced, w)))
    for r in runs:
        for what in r.failures:
            print(f"FAILED {what}")
    print("machine " + json.dumps(info, sort_keys=True))
    if args.trace:
        print("\n".join(self_time_table(tr)))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
