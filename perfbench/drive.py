"""Measured passes of one workload, driven in-process through ``refpose.cli``.

A client submits one command at a time and waits for it (a closed loop).
There are two streams of passes, each over a fixed batch:

* a refine pass: ``refpose refine`` over every image (``--parallel 1``,
  checkpoints on), then ``refpose eval`` of the refined poses against the
  true poses;
* a recipe pass: ``refpose uncertainty`` with first-order, monte-carlo and
  sampling at 0.5, 0.3 and 0.1 over the accepted reference poses, then
  ``refpose eval`` over all five uncertainty files.

The two passes alternate until the measuring time is used up (each runs at
least once). Every pass is checked: refined poses byte-identical to the
generator's, the accepted set and final inliers equal to the generator's,
valid uncertainty lines, and every output identical to the stream's first
pass. Commands get paths relative to the workload directory, so outputs do
not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import time

from refpose import cli

UNC_RUNS = (
    ("fo", ["--method", "first-order"]),
    ("mc", ["--method", "monte-carlo"]),
    ("k50", ["--method", "sampling", "--ratio", "0.5"]),
    ("k30", ["--method", "sampling", "--ratio", "0.3"]),
    ("k10", ["--method", "sampling", "--ratio", "0.1"]),
)
UNC_ESTIMATORS = ("first_order", "monte_carlo", "sampling_uncertainty")
OUT = "out"  # one output path for every pass: eval echoes its paths into its report


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples above it.

    Below 21 samples that percentile is not above the median, so the
    maximum is returned as the 100th percentile instead.
    """
    xs = sorted(values)
    if len(xs) < 21:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * k / (len(xs) - 1)


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _lines_by_name(path) -> dict:
    with open(path) as fh:
        return {line.split()[0]: line for line in fh.read().splitlines()[1:] if line.strip()}


class Workspace:
    """The state of the measured passes over the workload in the current directory."""

    def __init__(self, seed: int):
        self.seed = seed
        self.manifest = _load_json("manifest.json")
        self.images = sorted(self.manifest["images"])
        self.unc_images = self.manifest["unc_images"]
        self.expected = _lines_by_name(os.path.join("expected", "poses_refined.txt"))
        self.reference = {}  # stream -> per-output digests of its first pass
        self.refine_s = {}  # image -> per-pass refine() times
        self.unc_s = {}  # image -> per-pass recipe times (sum over the five estimates)
        self.passes = {"refine": [], "recipe": []}
        self.attempted = 0
        self.failed = []  # (pass, op, reason)
        self._calls = []
        self._originals = {}

    # -- per-call timers at refpose.cli's import sites -------------------

    def install_timers(self):
        def timed(fn, kind):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = args[3].image_id if kind == "refine" else None
                    self._calls.append((kind, key, time.perf_counter() - t0))
            return wrapper

        for name in ("refine",) + UNC_ESTIMATORS:
            self._originals[name] = getattr(cli, name)
            setattr(cli, name, timed(self._originals[name], "refine" if name == "refine" else "unc"))

    def remove_timers(self):
        for name, fn in self._originals.items():
            setattr(cli, name, fn)
        self._originals.clear()

    # -- one pass ---------------------------------------------------------

    def _command(self, argv):
        """Run one CLI command; returns an error string or None."""
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the bench's error boundary: count, report, go on
            return f"{type(exc).__name__}: {exc}"
        if code != 0:
            return f"exit {code}: {err.getvalue().strip()[:200]}"
        return None

    def refine_pass(self) -> dict:
        seed = str(self.seed)
        failed = {}
        self._calls.clear()
        t0 = time.perf_counter()
        err = self._command(["refine", "--mesh", "mesh.ply", "--cameras", "cameras.txt",
                             "--poses", "poses_init.txt", "--matches", "matches",
                             "--out", OUT, "--seed", seed, "--parallel", "1"])
        wall = time.perf_counter() - t0
        if err:
            failed.update({("refine", n): err for n in self.images})
        for _, name, dt in self._calls:
            self.refine_s.setdefault(name, []).append(dt)
        err = self._command(["eval", "--ref", "poses_true.txt", "--est", f"{OUT}/poses_refined.txt",
                             "--out", f"{OUT}/eval_refine.json", "--seed", seed])
        if err:
            failed[("eval", "refine")] = err
        digests, acc = self._check_refine(failed)
        return self._finish("refine", digests, failed, len(self.images) + 1,
                            {"wall_s": wall, "pose_acc_pct": acc})

    def recipe_pass(self) -> dict:
        seed = str(self.seed)
        failed = {}
        self._calls.clear()
        t0 = time.perf_counter()
        for tag, method in UNC_RUNS:
            err = self._command(["uncertainty", "--poses", "unc/poses.txt", "--inliers", "inliers",
                                 "--cameras", "cameras.txt", *method, "--seed", seed,
                                 "--out", f"{OUT}/unc_{tag}.txt"])
            if err:
                failed.update({(tag, n): err for n in self.unc_images})
        err = self._command(
            ["eval", "--ref", "unc/poses_true.txt", "--est", "unc/poses.txt",
             "--cameras", "cameras.txt", "--inliers", "inliers",
             "--sampling-unc", f"0.5={OUT}/unc_k50.txt", "--sampling-unc", f"0.3={OUT}/unc_k30.txt",
             "--sampling-unc", f"0.1={OUT}/unc_k10.txt",
             "--extra-unc", f"first-order={OUT}/unc_fo.txt", "--extra-unc", f"monte-carlo={OUT}/unc_mc.txt",
             "--out", f"{OUT}/eval_unc.json", "--seed", seed])
        wall = time.perf_counter() - t0
        if err:
            failed[("eval", "unc")] = err
        # each command visits the images in the same sorted order
        per_call = [dt for _, _, dt in self._calls]
        n = len(self.unc_images)
        if len(per_call) == len(UNC_RUNS) * n:
            for i, name in enumerate(self.unc_images):
                self.unc_s.setdefault(name, []).append(sum(per_call[i::n]))
        digests = self._check_recipe(failed)
        return self._finish("recipe", digests, failed, len(UNC_RUNS) * n + 1,
                            {"wall_s": wall})

    def _finish(self, stream, digests, failed, n_ops, record) -> dict:
        """Compare with the stream's first pass, account the operations, clean up."""
        reference = self.reference.setdefault(stream, digests)
        for key in set(digests) | set(reference):
            if digests.get(key) != reference.get(key):
                for op in self._ops_of(key):
                    failed.setdefault(op, f"output {key} differs from the first pass")
        shutil.rmtree(OUT, ignore_errors=True)
        index = len(self.passes[stream])
        self.attempted += n_ops
        self.failed += [(f"{stream}{index}", op, why) for op, why in sorted(failed.items())]
        record.update(ops=n_ops, failed=len(failed))
        self.passes[stream].append(record)
        return record

    # -- output checks ----------------------------------------------------

    def _ops_of(self, key: str) -> list:
        """The operations an output key belongs to; a whole file covers its command."""
        path, _, name = key.partition("#")
        if path.startswith("eval_"):
            return [("eval", path[5:].removesuffix(".json"))]
        if path.startswith("unc_"):
            tag = path[4:].removesuffix(".txt")
            return [(tag, name)] if name else [(tag, n) for n in self.unc_images]
        if "/" in path:  # checkpoints/<image>/..., inliers/<image>.txt
            name = path.split("/")[1].removesuffix(".txt")
        return [("refine", name)] if name in self.images else [("refine", n) for n in self.images]

    @staticmethod
    def _digests() -> dict:
        digests = {}
        for root, _, files in os.walk(OUT):
            for fname in files:
                path = os.path.join(root, fname)
                digests[os.path.relpath(path, OUT)] = _sha(path)
        return digests

    def _check_refine(self, failed: dict):
        """Digests of a refine pass's outputs, by file and by image, and the pose accuracy."""
        digests = self._digests()
        got = _read_or_empty(_lines_by_name, os.path.join(OUT, "poses_refined.txt"))
        report = _read_or_empty(lambda p: _load_json(p)["images"], os.path.join(OUT, "report.json"))
        for name in self.images:
            if got.get(name) != self.expected[name]:
                failed.setdefault(("refine", name), "refined pose differs from the generator's")
            elif report.get(name, {}).get("accepted") != self.manifest["images"][name]["accepted"]:
                failed.setdefault(("refine", name), "accept decision differs from the generator's")
            theirs = os.path.join("inliers", f"{name}.txt")
            if digests.get(f"inliers/{name}.txt") != (_sha(theirs) if os.path.exists(theirs) else None):
                failed.setdefault(("refine", name), "final inliers differ from the generator's")
            digests[f"report.json#{name}"] = json.dumps(report.get(name), sort_keys=True)
        return digests, self._check_eval("refine", self.images, failed)

    def _check_recipe(self, failed: dict):
        """Digests of a recipe pass's outputs, by file and by image."""
        digests = self._digests()
        for tag, _ in UNC_RUNS:
            lines = _read_or_empty(_lines_by_name, os.path.join(OUT, f"unc_{tag}.txt"))
            for name in self.unc_images:
                line = lines.get(name)
                digests[f"unc_{tag}.txt#{name}"] = line
                if line is None or not _positive_finite(line.split()[1:]):
                    failed.setdefault((tag, name), "missing or invalid uncertainty line")
        self._check_eval("unc", sorted(self.unc_images), failed)
        return digests

    @staticmethod
    def _check_eval(which, names, failed):
        """Pose accuracy at the first (tightest) threshold pair, or None if the report is bad."""
        try:
            doc = _load_json(os.path.join(OUT, f"eval_{which}.json"))
            covered = sorted(doc["per_image"])
            pct = float(doc["accuracy"]["pose_error_pct"][0])
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            failed.setdefault(("eval", which), "eval report missing or malformed")
            return None
        if covered != names:
            failed.setdefault(("eval", which), "eval report covers the wrong images")
        return pct

    # -- results ----------------------------------------------------------

    def fingerprints(self) -> dict:
        """sha256 of each output file of the first passes; one combined digest per directory."""
        ref = {k: v for digests in self.reference.values() for k, v in digests.items()}
        out = {key: ref[key] for key in sorted(ref) if "/" not in key and "#" not in key}
        for sub in ("checkpoints/", "inliers/"):
            h = hashlib.sha256()
            for key in sorted(k for k in ref if k.startswith(sub)):
                h.update(f"{key} {ref[key]}\n".encode())
            out[sub.rstrip("/")] = h.hexdigest()
        return out

    def metrics(self) -> dict:
        refine, recipe = self.passes["refine"], self.passes["recipe"]
        per_image = [statistics.median(v) for v in self.refine_s.values()]
        unc_image = [statistics.median(v) for v in self.unc_s.values()]
        tail_s, tail_pct = tail(per_image)
        return {
            "refine.img_per_s": len(self.images) / statistics.median(p["wall_s"] for p in refine),
            "refine.img_p50_s": statistics.median(per_image),
            "refine.img_tail_s": tail_s,
            "refine.pose_acc_pct": refine[0]["pose_acc_pct"],
            "unc.img_per_s": len(self.unc_images) / statistics.median(p["wall_s"] for p in recipe),
            "unc.img_p50_s": statistics.median(unc_image),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "_tail_pct": tail_pct,
            "_tail_n": len(per_image),
        }


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_or_empty(reader, path) -> dict:
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, IndexError):
        return {}


def _positive_finite(fields) -> bool:
    try:
        values = [float(f) for f in fields]
    except ValueError:
        return False
    return len(values) == 2 and all(0 < v < float("inf") for v in values)


def run_passes(ws: Workspace, seconds: float) -> float:
    """Alternate a refine pass and a recipe pass until ``seconds`` are used up
    (at least one of each); returns the summed wall time of their commands."""
    start = time.perf_counter()
    wall = 0.0
    while True:
        wall += ws.refine_pass()["wall_s"] + ws.recipe_pass()["wall_s"]
        if time.perf_counter() - start >= seconds:
            return wall
