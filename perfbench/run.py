"""refpose benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload large-mesh --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run generates the workload's inputs from the seed (``gen_s``, not
gated), measures passes of the pipeline for ``--seconds`` in a single
process (see drive.py), and times fresh interpreters that import refpose
and parse those inputs (``setup_s``), half of them before the passes and
half after. ``--trace 1`` runs an uncounted warm-up
pass of each kind, then alternates untraced passes with passes that record
spans around every layer, and reports per-layer metrics instead of
end-to-end ones. The last line of standard output is
the JSON result. Work files go to ``.bench_work/`` and are removed at exit;
per-seed output fingerprints stay in ``.bench_work/records/`` so that a
later run of the same code and seed can be checked against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 6
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "refine.img_per_s": "img/s", "refine.img_p50_s": "s", "refine.img_tail_s": "s",
    "refine.pose_acc_pct": "%", "unc.img_per_s": "img/s", "unc.img_p50_s": "s",
}
_COUNT = "count"
PER_LAYER = {
    "render.calls": _COUNT, "render.busy_s": "s", "render.faces": _COUNT, "render.pixels": _COUNT,
    "render.ns_per_face": "ns", "render.distorted_busy_s": "s", "render.covered_frac": "ratio",
    "lift.calls": _COUNT, "lift.busy_s": "s", "lift.matches": _COUNT, "lift.lifted": _COUNT,
    "lift.yield": "ratio",
    "lo_ransac.calls": _COUNT, "lo_ransac.busy_s": "s", "lo_ransac.self_s": "s",
    "lo_ransac.hypotheses": _COUNT, "lo_ransac.degenerate": _COUNT, "lo_ransac.cap_hits": _COUNT,
    "lo_ransac.inlier_frac": "ratio", "p3p.busy_s": "s", "p3p.poses_per_call": _COUNT,
    "lo.refits": _COUNT, "lo.busy_s": "s",
    "lm.solves": _COUNT, "lm.busy_s": "s", "lm.jac_evals": _COUNT, "lm.points": _COUNT,
    "lm.failures": _COUNT,
    "geometry.pose_objects": _COUNT,
    "refine.rounds": _COUNT, "refine.self_s": "s", "refine.matcher_s": "s",
    "unc.first_order_s": "s", "unc.monte_carlo_s": "s", "unc.sampling_s": "s",
    "unc.resolves": _COUNT, "unc.resolve_fail_frac": "ratio",
    "eval.busy_s": "s", "eval.points": _COUNT,
    "formats.parse_s": "s", "formats.parse_bytes": "B", "formats.write_s": "s",
    "formats.write_bytes": "B",
    "trace.overhead_pct": "%", "ops_failed_pct": "%",
}


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + HERE
    env.pop("REFPOSE_SEED", None)
    env.pop("REFPOSE_PARALLEL", None)
    return env


def _code_hash(root: str) -> str:
    h = hashlib.sha256()
    for base in (os.path.join(root, "src", "refpose"), HERE):
        for dirpath, _, files in sorted(os.walk(base)):
            for fname in sorted(f for f in files if f.endswith(".py")):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


# -- child roles ----------------------------------------------------------------


def role_gen(args):
    import workloads

    w = workloads.WORKLOADS[args.workload]
    workloads.generate(w.tiny() if args.tiny else w, args.seed, args.dir)


def role_parse(args):
    import workloads

    workloads.parse_inputs(args.dir)


def role_measure(args):
    import drive

    os.chdir(args.dir)
    ws = drive.Workspace(args.seed)
    ws.install_timers()
    result = {"machine": _machine()}
    if not args.trace:
        drive.run_passes(ws, args.seconds)
        result["metrics"] = ws.metrics()
    else:
        import tracing

        tracer = tracing.Tracer()
        # A warm-up pair takes the process's cold first passes, so that
        # neither half below is charged for them; then the halves alternate.
        drive.run_passes(ws, 0)
        plain = traced = wall = 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            plain += drive.run_passes(ws, 0)
            tracer.install()
            t0 = time.perf_counter()
            traced += drive.run_passes(ws, 0)
            wall += time.perf_counter() - t0
            tracer.uninstall()
        layer, table = tracer.summarize(wall)
        layer["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        layer["ops_failed_pct"] = 100.0 * len(ws.failed) / ws.attempted
        result["metrics"] = layer
        result["table"] = tracing.format_table(args.workload, table)
        tracer.write(args.spans)
    ws.remove_timers()
    result.update(fingerprints=ws.fingerprints(), attempted=ws.attempted, passes=ws.passes,
                  refine_s=ws.refine_s, unc_s=ws.unc_s,
                  failed=[[i, list(op), why] for i, op, why in ws.failed])
    with open(args.result, "w") as fh:
        json.dump(result, fh)


# -- the benchmark run ------------------------------------------------------------


def _run_child(role_args, root, deadline=None):
    """Run a child role; without a deadline the wait blocks instead of polling,
    which keeps the polling interval out of timed runs."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--role", *role_args]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, env=_child_env(root), cwd=root, check=True, timeout=timeout)


def _check_record(path: str, code: str, fingerprints: dict) -> list:
    """Fingerprints must repeat across runs of the same code and seed."""
    problems = []
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        if old.get("code") == code and old.get("fingerprints") != fingerprints:
            problems = [k for k in fingerprints if old["fingerprints"].get(k) != fingerprints[k]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"code": code, "fingerprints": fingerprints}, fh, indent=1)
    return problems


def bench(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "refpose", "cli.py")):
        print("error: run from the root of a refpose checkout (src/refpose not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    work = os.path.join(root, ".bench_work", f"{tag}-trace{args.trace}-{os.getpid()}")
    records = os.path.join(root, ".bench_work", "records")
    inputs = os.path.join(work, "in")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", inputs]
    try:
        t0 = time.perf_counter()
        _run_child(["gen", *common] + (["--tiny"] if args.tiny else []), root, deadline)
        gen_s = time.perf_counter() - t0

        def time_setups(n):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                _run_child(["parse", *common], root)
                times.append(time.perf_counter() - t0)
            return times

        # Half the set-ups run before the measured passes and half after, so
        # that their median spans the run instead of one moment of it. The
        # first, untimed one warms the page and bytecode caches.
        setup = []
        if not args.trace:
            time_setups(1)
            setup += time_setups(SETUP_REPEATS // 2)

        result_path = os.path.join(work, "result.json")
        os.makedirs(records, exist_ok=True)
        _run_child(["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--result", result_path,
                    "--spans", os.path.join(records, f"{tag}-spans.jsonl.gz")], root, deadline)
        with open(result_path) as fh:
            res = json.load(fh)
        if not args.trace:
            setup += time_setups(SETUP_REPEATS - SETUP_REPEATS // 2)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    m = res["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        m["setup_s"] = statistics.median(setup)
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in units.items()}
    mismatched = _check_record(os.path.join(records, f"{tag}.json"), _code_hash(root), res["fingerprints"])

    passes = {stream: len(runs) for stream, runs in res["passes"].items()}
    print(f"workload {args.workload} seed {args.seed} passes {passes} gen_s {gen_s:.3f}"
          + (f" setup_runs {[round(s, 4) for s in setup]}" if setup else ""))
    print("machine " + json.dumps(res["machine"]))
    print("fingerprints " + json.dumps(res["fingerprints"], sort_keys=True))
    if not args.trace:
        print(f"refine.img_tail_s is the p{m['_tail_pct']:.0f} of {m['_tail_n']} per-image medians")
    else:
        print(res["table"])
    for i, op, why in res["failed"][:20]:
        print(f"failed: pass {i} {op[0]} {op[1]}: {why}", file=sys.stderr)
    if mismatched:
        print(f"failed: fingerprints {mismatched} differ from an earlier run of this code and seed",
              file=sys.stderr)
    failed = len(res["failed"])
    print(json.dumps({"correct": failed == 0 and not mismatched, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["large-mesh", "outlier-heavy", "uncertainty"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-long inputs for the self-test")
    parser.add_argument("--role", choices=["gen", "parse", "measure"], help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role:
        {"gen": role_gen, "parse": role_parse, "measure": role_measure}[args.role](args)
        return 0
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
