"""Self-test of the benchmark at a tiny size (about two minutes).

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that

* BENCHMARK.json names exactly the workloads and metrics the bench emits;
* every workload emits every end-to-end metric untraced and every per-layer
  metric traced, with no failed operation;
* output fingerprints repeat across two invocations and the traced run;
* deliberately corrupted outputs are counted as failed operations.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import workloads

    check([(w["name"], w["why"]) for w in spec["workloads"]]
          == [(w.name, w.why) for w in workloads.WORKLOADS.values()],
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for section, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        check(listed == catalogue, f"BENCHMARK.json {section} differs from run.py's catalogue")
    print("selftest: BENCHMARK.json matches the emitted metrics")


def invoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    prints = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("fingerprints "))
    return result, prints


def emitted_metrics_and_fingerprints():
    for workload in ("large-mesh", "outlier-heavy", "uncertainty"):
        first, prints = invoke(workload, 0)
        second, prints2 = invoke(workload, 0)
        traced, prints3 = invoke(workload, 1)
        for result, catalogue in ((first, run.END_TO_END), (second, run.END_TO_END),
                                  (traced, run.PER_LAYER)):
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload}: not correct: {result}")
            check(set(result["metrics"]) == set(catalogue), f"{workload}: metric names differ")
            check(all(result["metrics"][n]["unit"] == u for n, u in catalogue.items()),
                  f"{workload}: metric units differ")
        check(prints == prints2 == prints3, f"{workload}: fingerprints differ between invocations")
        print(f"selftest: {workload} emits every metric; fingerprints repeat")


def corrupted_outputs_fail():
    import drive
    import workloads

    class Corrupting(drive.Workspace):
        """Damages one output after the command that wrote it."""

        target = None

        def _command(self, argv):
            err = super()._command(argv)
            path = os.path.join(drive.OUT, self.target or "")
            if self.target and argv[0] != "eval" and os.path.exists(path):
                with open(path, "r+b") as fh:
                    data = fh.read()
                    fh.seek(0)
                    fh.write(data[:-40] + bytes(b ^ 1 for b in data[-40:]))
                self.target = None
            return err

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work"), prefix="selftest-") as tmp:
        w = workloads.WORKLOADS["uncertainty"].tiny()
        workloads.generate(w, 5, tmp)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            ws = Corrupting(5)
            ws.refine_pass()
            ws.recipe_pass()
            check(not ws.failed, f"clean passes failed: {ws.failed}")
            image = ws.images[0]
            for target, stream in (("poses_refined.txt", "refine"),
                                   (f"checkpoints/{image}/iter2.pfm", "refine"),
                                   ("unc_mc.txt", "recipe")):
                ws.target = target
                before = len(ws.failed)
                (ws.refine_pass if stream == "refine" else ws.recipe_pass)()
                check(len(ws.failed) > before, f"corrupted {target} was not counted as failed")
        finally:
            os.chdir(cwd)
    print("selftest: corrupted outputs count as failed operations")


if __name__ == "__main__":
    bench_json()
    corrupted_outputs_fail()
    emitted_metrics_and_fingerprints()
    print("selftest: OK")
