"""Benchmark workloads and their seeded input generator.

Each workload is a batch of synthetic images run through the paper's
pipeline: ``refpose refine`` over every image, then the uncertainty recipe
(first-order, Monte Carlo, sampling at 0.5/0.3/0.1) and ``refpose eval`` over
accepted images. The workloads differ only in their inputs, chosen so that
one layer dominates each:

* ``large-mesh``: a many-face courtyard at 1280x960, 8 of 18 images on a
  shared pinhole camera and 10 on their own distorted camera (more
  distinct cameras than the renderer's undistortion-grid cache holds), with
  few, mostly clean matches. Render dominates.
* ``outlier-heavy``: a ~200-face scene at 640x480 with many matches per
  round, outlier ratios over 0.3-0.8 (half the batch at 0.6), and one image
  whose final-round matches are all outliers. LO-RANSAC and P3P dominate.
* ``uncertainty``: a ~200-face scene at 640x480 with mostly clean matches
  and 100-600 inliers per image (half the batch at ~350); the recipe runs
  on half the images. LM dominates.

Each batch has a run of images of equal cost where its median falls, and
one image far slower than the rest, away from the cold start of the
measuring process, where its maximum falls. So ``refine.img_p50_s`` and
``refine.img_tail_s`` do not straddle two images of different cost (a
moment of machine slowness on one image would then move them by the gap
between the two).

``generate`` mirrors ``refpose synth`` (true and initial poses, recorded
per-round match files, the refined poses a correct ``refine`` run must
reproduce byte for byte), adding per-image cameras and an exact match and
outlier count per round. Everything is derived from the seed; the program
only ever sees the written files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from refpose import formats
from refpose.correspond import MatchSet, load_matches, write_matches
from refpose.geometry import Camera, Pose
from refpose.optimize import RefineConfig
from refpose.ransac import RansacConfig
from refpose.refine import refine
from refpose.seeding import derive_rng, derive_seed, name_key
from refpose.synth import SceneSpec, SimMatcherSpec, SimulatedMatcher, make_scene, random_perturbation

GEN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    triangles: int  # box-courtyard triangle target
    density: float  # feature points per square metre of surface
    width: int
    height: int
    focal: float
    outliers: tuple  # outlier ratio of each image, in batch order
    matches: tuple  # matches per round of each image; an all-outlier image gets the most
    k1: tuple  # radial distortion of each image with its own camera; the rest share `default`
    all_outlier: int  # extra images whose final-round matches are all outliers
    unc_images: int  # accepted images given to the uncertainty recipe, evenly spaced

    def tiny(self) -> "Workload":
        """A seconds-long version with the same composition, for the self-test."""
        return replace(
            self,
            triangles=min(self.triangles, 400),
            width=self.width // 2,
            height=self.height // 2,
            focal=self.focal / 2,
            matches=tuple(m // 2 for m in self.matches[:3]),
            outliers=self.outliers[:3],
            k1=self.k1[:1],
            unc_images=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="large-mesh",
            why="render-bound refine: a many-face mesh at 1280x960, 10 of 18 images on "
            "their own distorted camera, which overflows the undistortion-grid cache",
            triangles=2000, density=0.6, width=1280, height=960, focal=1000.0,
            outliers=(0.2,) * 18, matches=(100,) * 18,
            k1=(0.0, 0.0125, 0.025, 0.0375, -0.1, 0.05, 0.0625, 0.075, 0.0875, 0.1),
            all_outlier=0, unc_images=6,
        ),
        Workload(
            name="outlier-heavy",
            why="RANSAC-bound refine: 500 matches per round, outlier ratios 0.3-0.8, "
            "and 1 image in 12 whose all-outlier final round hits the 10k-iteration cap",
            triangles=200, density=1.5, width=640, height=480, focal=500.0,
            outliers=(0.6, 0.3, 0.6, 0.7, 0.6, 0.4, 0.6, 0.8, 0.6, 0.5, 0.6), matches=(500,) * 11,
            k1=(), all_outlier=1, unc_images=11,
        ),
        Workload(
            name="uncertainty",
            why="LM-bound uncertainty recipe on accepted poses with 100-600 "
            "inliers each; cheap, mostly clean refine, no large renders",
            triangles=200, density=1.7, width=640, height=480, focal=500.0,
            outliers=(0.1,) * 15 + (0.5,),
            matches=(120, 390, 390, 274, 197, 390, 390, 351, 429, 390, 390, 583, 506, 390, 390, 660),
            k1=(), all_outlier=0, unc_images=8,
        ),
    )
}


def _spread(lo: float, hi: float, count: int) -> list:
    return list(np.linspace(lo, hi, count)) if count > 1 else [lo] * count


def image_plan(w: Workload) -> list:
    """(name, outlier ratio per round, matches per round, k1 or None) per image.

    Distorted images are spread over the batch so the distorted cameras are
    visited cyclically, which defeats a FIFO cache smaller than their
    number. An all-outlier image is clean until its last round: RANSAC then
    runs to its cap on a good rendering, and the image is rejected without
    rendering from the garbage pose that follows (whose cost and memory
    would depend on where that pose happens to land).
    """
    last = RefineConfig().iterations
    n = len(w.outliers)
    ratios = [(r,) * last for r in w.outliers]
    ratios += [(min(w.outliers),) * (last - 1) + (1.0,)] * w.all_outlier
    counts = list(w.matches) + [max(w.matches)] * w.all_outlier
    k1 = dict(zip((int(round(i)) for i in _spread(1, n - 1, len(w.k1))), w.k1))
    return [
        (f"img{i:03d}", tuple(float(r) for r in ratios[i]), counts[i], k1.get(i))
        for i in range(len(ratios))
    ]


class _ExactMatcher(SimulatedMatcher):
    """Simulated matcher with an exact match count and outlier share per round.

    Binomial counts would make RANSAC and LM cost vary from seed to seed far
    more than the workload's schedule intends.
    """

    def __init__(self, *args, ratios: tuple, count: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.ratios = ratios  # outlier share of round k at index k - 1
        self.count = count

    def __call__(self, iteration, pose, dm):
        (matches,) = super().__call__(iteration, pose, dm)
        self.recorded.pop()
        pairs = np.array(matches.pairs)
        if len(pairs) == 0:
            return []
        rng = derive_rng(self.spec.rng_seed, iteration, 2)
        if len(pairs) > self.count:
            pairs = pairs[np.sort(rng.choice(len(pairs), size=self.count, replace=False))]
        k = int(round(self.ratios[iteration - 1] * len(pairs)))
        idx = rng.choice(len(pairs), size=k, replace=False)
        pairs[idx, :2] = rng.uniform([0.0, 0.0], [self.cam.width, self.cam.height], (k, 2))
        matches = MatchSet(matches.image_id, matches.render_id, pairs)
        self.recorded.append((iteration, matches))
        return [matches]


def _refine_image(task):
    """Worker: simulate one image's matcher, refine it, write its match files."""
    out, name, seed, ratios, count, points, true_pose = task
    mesh = formats.read_ply(os.path.join(out, "mesh.ply"))
    cam = formats.camera_for_image(formats.read_cameras(os.path.join(out, "cameras.txt")), name)
    init = formats.read_poses(os.path.join(out, "poses_init.txt"))[name]
    matcher = _ExactMatcher(
        points, true_pose, cam,
        SimMatcherSpec(sigma_px=1.0, rng_seed=derive_seed(seed, name_key(name), 1)),
        image_id=name, mesh=mesh, ratios=ratios, count=count,
    )
    result = refine(init, mesh, cam, matcher, RefineConfig(),
                    RansacConfig(rng_seed=derive_seed(seed, name_key(name))))
    for iteration, matches in matcher.recorded:
        write_matches(matches, os.path.join(out, "matches", name, f"iter{iteration}.txt"))
    if len(result.inliers):
        formats.write_corrs(os.path.join(out, "inliers", f"{name}.txt"), name, result.inliers)
    rounds = [len(m) for _, m in matcher.recorded]
    return name, result.pose, result.accepted, rounds


def _camera(w: Workload, distortion=None) -> Camera:
    return Camera(fx=w.focal, fy=w.focal, cx=w.width / 2, cy=w.height / 2,
                  width=w.width, height=w.height,
                  distortion=np.zeros(4) if distortion is None else distortion)


def generate(w: Workload, seed: int, out: str) -> None:
    """Write the workload's inputs and expected outputs under ``out``."""
    # imported here so that parse_inputs, which setup_s times, does not pay for them
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    os.makedirs(out, exist_ok=True)
    mesh, points = make_scene(SceneSpec(layout="box-courtyard", triangle_target=w.triangles,
                                        density=w.density, rng_seed=seed))
    formats.write_ply(mesh, os.path.join(out, "mesh.ply"))

    plan = image_plan(w)
    cameras = {"default": _camera(w)}
    # Radial distortion is fixed per workload, not drawn from the seed: how
    # much render work a distorted camera costs depends strongly on k1.
    true_poses, init_poses = {}, {}
    for name, _, _, k1 in plan:
        rng = derive_rng(seed, name_key(name))
        true_poses[name] = random_perturbation(
            Pose.identity(), rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.5), rng)
        init_poses[name] = random_perturbation(true_poses[name], 5.0, 1.0, rng)
        if k1 is not None:
            cameras[name] = _camera(w, [k1, 0.0, 1e-4, -1e-4])
    formats.write_cameras(os.path.join(out, "cameras.txt"), cameras)
    formats.write_poses(os.path.join(out, "poses_true.txt"), true_poses)
    formats.write_poses(os.path.join(out, "poses_init.txt"), init_poses)

    tasks = [(out, name, seed, ratios, count, points, true_poses[name])
             for name, ratios, count, _ in plan]
    with ProcessPoolExecutor(GEN_WORKERS, mp_context=get_context("spawn")) as pool:
        results = sorted(pool.map(_refine_image, tasks))

    expected = {name: pose for name, pose, _, _ in results}
    accepted = {name: ok for name, _, ok, _ in results}
    formats.write_poses(os.path.join(out, "expected", "poses_refined.txt"), expected)

    # The uncertainty recipe runs on accepted reference poses, as in the paper,
    # picked evenly across the batch so they span its composition.
    ok = [name for name in sorted(accepted) if accepted[name]]
    if not ok:
        raise RuntimeError(f"{w.name} seed {seed}: no image was accepted")
    unc = sorted({ok[int(round(i))] for i in np.linspace(0, len(ok) - 1, min(w.unc_images, len(ok)))})
    formats.write_poses(os.path.join(out, "unc", "poses.txt"), {n: expected[n] for n in unc})
    formats.write_poses(os.path.join(out, "unc", "poses_true.txt"), {n: true_poses[n] for n in unc})

    manifest = {
        "workload": w.name, "seed": seed, "faces": mesh.num_faces,
        "images": {
            name: {"outlier_ratios": ratios, "k1": k1,
                   "accepted": accepted[name], "matches_per_round": rounds}
            for (name, ratios, _, k1), (_, _, _, rounds) in zip(plan, results)
        },
        "unc_images": unc,
    }
    formats.write_json(os.path.join(out, "manifest.json"), manifest)


def parse_inputs(out: str) -> None:
    """Parse every input file once through refpose's readers."""
    formats.read_ply(os.path.join(out, "mesh.ply"))
    formats.read_cameras(os.path.join(out, "cameras.txt"))
    for rel in ("poses_init.txt", "poses_true.txt", "unc/poses_true.txt"):
        formats.read_poses(os.path.join(out, rel))
    for name in formats.read_poses(os.path.join(out, "unc", "poses.txt")):
        formats.read_corrs(os.path.join(out, "inliers", f"{name}.txt"))
    for root, _, names in os.walk(os.path.join(out, "matches")):
        for fname in names:
            load_matches(os.path.join(root, fname))
