"""Spans around calls into refpose's layers, recorded from benchmark code only.

``Tracer.install`` replaces public functions at the sites where refpose
imports them (``refpose.refine.render_depth``, ``refpose.ransac.p3p``, ...)
with wrappers that record a span: name, start, end, parent span, image id
and a few size attributes taken from the arguments and the result. Spans
are kept in memory; ``write`` saves them when the run ends. A layer's self
time is its spans' busy time minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

import refpose.cli as cli_mod
import refpose.formats as formats_mod
import refpose.geometry as geometry_mod
import refpose.optimize as optimize_mod
import refpose.ransac as ransac_mod
import refpose.uncertainty as uncertainty_mod
from refpose.errors import DegenerateConfiguration

# the package re-exports the refine() function under the submodule's name
refine_mod = importlib.import_module("refpose.refine")

# span name -> layer
LAYERS = {
    "render": "render", "lift": "correspond", "lo_ransac": "ransac", "p3p": "ransac",
    "lo": "ransac", "lm": "optimize", "refine": "refine", "matcher": "refine",
    "unc.first_order": "uncertainty", "unc.monte_carlo": "uncertainty",
    "unc.sampling": "uncertainty", "eval": "metrics", "parse": "formats", "write": "formats",
    "cli": "cli",
}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _max_iterations(args, kwargs) -> int:
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg", ransac_mod.RansacConfig())
    return cfg.max_iterations


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, image, attrs]
        self.counts = Counter()
        self.image = None
        self._stack = []
        self._patched = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, attrs=None, image=None, pre=None):
        """``pre`` takes attributes from the arguments, ``attrs`` also from the result."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if image is not None:
                self.image = image(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.image,
                   pre(args, kwargs) if pre is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                rec[5] = {**(rec[5] or {}), "error": type(exc).__name__}
                raise
            else:
                rec[2] = time.perf_counter()
                if attrs is not None:
                    rec[5] = {**(rec[5] or {}), **attrs(args, kwargs, result)}
                return result
            finally:
                stack.pop()

        return wrapper

    def count(self, key, fn, amount=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper_of):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def install(self):
        w, c, p = self.wrap, self.count, self._patch
        p(cli_mod, "main", lambda f: w("cli", f, lambda a, k, r: {"command": (a[0] or ["?"])[0]},
                                       image=lambda a: None))
        p(cli_mod, "refine", lambda f: w("refine", f, image=lambda a: a[3].image_id))
        p(refine_mod.FileMatchProvider, "__call__", lambda f: w("matcher", f))
        p(refine_mod, "load_matches", lambda f: w("parse", f, lambda a, k, r: {"bytes": _size(a[0])}))
        p(refine_mod, "render_depth", lambda f: w("render", f, lambda a, k, r: {
            "faces": a[0].num_faces, "pixels": a[2].width * a[2].height,
            "distorted": a[2].has_distortion, "covered": float(np.isfinite(r.depth).mean())}))
        p(refine_mod, "lift_all", lambda f: w("lift", f, lambda a, k, r: {
            "matches": sum(len(m) for m in a[0]), "lifted": len(r)}))
        for owner in (refine_mod, uncertainty_mod):
            p(owner, "lo_ransac", lambda f: w(
                "lo_ransac", f, lambda a, k, r: {"inliers": r.inlier_count},
                pre=lambda a, k: {"n": len(a[0]), "cap": _max_iterations(a, k)}))
        p(ransac_mod, "p3p", lambda f: w("p3p", f, lambda a, k, r: {"poses": len(r)}))
        p(ransac_mod, "_local_optimize", lambda f: w("lo", f))
        for owner in (ransac_mod, refine_mod, uncertainty_mod):
            p(owner, "optimize_pose", lambda f: w("lm", f, lambda a, k, r: {"points": len(a[0])}))
        p(optimize_mod, "residuals_and_jacobian", lambda f: c("lm.jac_evals", f))
        p(geometry_mod.Pose, "__post_init__", lambda f: c("geometry.pose_objects", f))
        for est, span in (("first_order", "unc.first_order"), ("monte_carlo", "unc.monte_carlo"),
                          ("sampling_uncertainty", "unc.sampling")):
            p(cli_mod, est, lambda f, span=span: w(span, f))
        p(cli_mod, "cmd_eval", lambda f: w("eval", f))
        p(cli_mod, "max_reprojection_diff", lambda f: c("eval.points", f, lambda a: len(a[2])))
        for reader in ("read_ply", "read_cameras", "read_poses", "read_corrs", "read_uncertainties"):
            p(formats_mod, reader, lambda f: w("parse", f, lambda a, k, r: {"bytes": _size(a[0])}))
        for writer, arg in (("write_poses", 0), ("write_corrs", 0), ("write_json", 0),
                            ("write_uncertainties", 0), ("write_depth_checkpoint", 1)):
            p(formats_mod, writer,
              lambda f, arg=arg: w("write", f, lambda a, k, r: {"bytes": _size(a[arg])}))
        # read_corrs names the image the next uncertainty estimate works on
        p(formats_mod, "read_corrs", lambda f: self._naming(f))

    def _naming(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.image = result[0]
            return result
        return wrapper

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # -- aggregation ----------------------------------------------------------

    def summarize(self, wall_s: float) -> tuple:
        """(per-layer metrics, per-layer table rows) over all recorded spans."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child_s = [0.0] * len(spans)
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_s[s[3]] += dur[i]
                children[s[3]].append(i)
        self_s = [d - c for d, c in zip(dur, child_s)]
        by = defaultdict(list)
        for i, s in enumerate(spans):
            by[s[0]].append(i)

        def busy(name):
            return sum(dur[i] for i in by[name])

        def total(name, key):
            return sum((spans[i][5] or {}).get(key, 0) for i in by[name])

        def errors(idx):
            return sum(1 for i in idx if (spans[i][5] or {}).get("error"))

        def kids(i, name):
            return [j for j in children[i] if spans[j][0] == name]

        def ratio(a, b):
            return a / b if b else 0.0

        render = by["render"]
        ok_ransac = [i for i in by["lo_ransac"] if "inliers" in (spans[i][5] or {})]
        mc_resolves = [j for i in by["unc.monte_carlo"] for j in kids(i, "lm")]
        samp_resolves = [j for i in by["unc.sampling"] for j in kids(i, "lo_ransac")]
        samp_final = [j for i in by["unc.sampling"] for j in kids(i, "lm")]
        resolves = len(mc_resolves) + len(samp_resolves)
        p3p_under = [j for i in by["lo_ransac"] for j in kids(i, "p3p")]
        lm = by["lm"]
        m = {
            "render.calls": len(render),
            "render.busy_s": busy("render"),
            "render.faces": total("render", "faces"),
            "render.pixels": total("render", "pixels"),
            "render.ns_per_face": 1e9 * ratio(busy("render"), total("render", "faces")),
            "render.distorted_busy_s": sum(dur[i] for i in render if (spans[i][5] or {}).get("distorted")),
            "render.covered_frac": ratio(total("render", "covered"), len(render)),
            "lift.calls": len(by["lift"]),
            "lift.busy_s": busy("lift"),
            "lift.matches": total("lift", "matches"),
            "lift.lifted": total("lift", "lifted"),
            "lift.yield": ratio(total("lift", "lifted"), total("lift", "matches")),
            "lo_ransac.calls": len(by["lo_ransac"]),
            "lo_ransac.busy_s": busy("lo_ransac"),
            "lo_ransac.self_s": sum(self_s[i] for i in by["lo_ransac"]),
            "lo_ransac.hypotheses": len(p3p_under),
            "lo_ransac.degenerate": sum(1 for j in p3p_under
                                        if (spans[j][5] or {}).get("error") == DegenerateConfiguration.__name__),
            "lo_ransac.cap_hits": sum(1 for i in by["lo_ransac"]
                                      if len(kids(i, "p3p")) >= spans[i][5]["cap"]),
            "lo_ransac.inlier_frac": ratio(sum(spans[i][5]["inliers"] / spans[i][5]["n"] for i in ok_ransac),
                                           len(ok_ransac)),
            "p3p.busy_s": busy("p3p"),
            "p3p.poses_per_call": ratio(total("p3p", "poses"), len(by["p3p"])),
            "lo.refits": sum(len(kids(i, "lm")) for i in by["lo"]),
            "lo.busy_s": busy("lo"),
            "lm.solves": len(lm),
            "lm.busy_s": busy("lm"),
            "lm.jac_evals": self.counts["lm.jac_evals"],
            "lm.points": total("lm", "points"),
            "lm.failures": errors(lm),
            "geometry.pose_objects": self.counts["geometry.pose_objects"],
            "refine.rounds": sum(len(kids(i, "render")) for i in by["refine"]),
            "refine.self_s": sum(self_s[i] for i in by["refine"]),
            "refine.matcher_s": busy("matcher"),
            "unc.first_order_s": busy("unc.first_order"),
            "unc.monte_carlo_s": busy("unc.monte_carlo"),
            "unc.sampling_s": busy("unc.sampling"),
            "unc.resolves": resolves,
            "unc.resolve_fail_frac": ratio(errors(mc_resolves) + errors(samp_resolves) + errors(samp_final),
                                           resolves),
            "eval.busy_s": busy("eval"),
            "eval.points": self.counts["eval.points"],
            "formats.parse_s": busy("parse"),
            "formats.parse_bytes": total("parse", "bytes"),
            "formats.write_s": busy("write"),
            "formats.write_bytes": total("write", "bytes"),
        }

        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(spans):
            row = rows[LAYERS[s[0]]]
            row[0] += 1
            if s[3] < 0 or LAYERS[spans[s[3]][0]] != LAYERS[s[0]]:
                row[1] += dur[i]  # count nested spans of one layer once
            row[2] += self_s[i]
        rooted = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
        table = [(layer, n, b, s, 100.0 * ratio(s, wall_s))
                 for layer, (n, b, s) in sorted(rows.items(), key=lambda kv: -kv[1][2])]
        table.append(("bench", 0, wall_s - rooted, wall_s - rooted, 100.0 * ratio(wall_s - rooted, wall_s)))
        return m, table


def format_table(workload: str, table) -> str:
    lines = [f"per-layer trace, {workload} (busy excludes time nested in the same layer)",
             f"  {'layer':<12} {'spans':>9} {'busy_s':>10} {'self_s':>10} {'self % wall':>12}"]
    for layer, n, b, s, share in table:
        lines.append(f"  {layer:<12} {n:>9d} {b:>10.3f} {s:>10.3f} {share:>11.1f}%")
    return "\n".join(lines)
