"""dmr-refine: the three DMR drivers, each on its own copy of one mesh.

Why: the only workload that runs ``meshing``/``dmr``/``core.conflict``,
the substrate the Fig. 6/7 reproduction spends its time in.  The mesh is
``random_mesh(5_000)``, Fig. 6's smallest input (0.5M triangles) at 1/100
scale; at 1.0M/100 one run took 45-58 s on a shared 2-vCPU machine, too
long for the repeated runs a comparison needs.

One pass refines a fresh copy of the mesh with ``refine_gpu``,
``refine_galois(threads=48)`` and ``refine_sequential``, in that order;
each refinement is one operation.  Outside the timer every operation is
checked: converged, ``mesh.validate()`` passes, and the output digest and
modeled time equal those of the driver's first pass.
"""

from __future__ import annotations

import time

from measure import Outcome, median, more_time, self_rss_mb
from spans import Recorder, by_name, patched

TRIANGLES = 5_000
SETUP_REPS = 3
DRIVERS = ("gpu", "galois", "serial")


def mesh_digest(mesh) -> str:
    from repro.serve.jobs import digest_arrays

    return digest_arrays((mesh.tri[: mesh.n_tris], mesh.px[: mesh.n_pts],
                          mesh.py[: mesh.n_pts], mesh.isdel[: mesh.n_tris]))


def drivers(seed: int) -> dict:
    from repro.dmr import DMRConfig, refine_galois, refine_gpu, refine_sequential

    return {"gpu": lambda m: refine_gpu(m, DMRConfig(seed=seed)),
            "galois": lambda m: refine_galois(m, threads=48, seed=seed),
            "serial": lambda m: refine_sequential(m, seed=seed)}


def modeled_s(name: str, res) -> float:
    from repro.vgpu import CostModel

    cm = CostModel()
    if name == "gpu":
        return cm.gpu_time(res.counter)
    if name == "galois":
        return cm.cpu_time(res.counter, 48)
    return cm.serial_time(res.counter)


def abort_ratio(res) -> float:
    """Wasted share of attempted refinements (the serial driver wastes
    only the triangles it walks to and then skips)."""
    if hasattr(res, "abort_ratio"):
        return res.abort_ratio
    total = res.processed + res.skipped
    return res.skipped / total if total else 0.0


def trace_targets():
    import repro.dmr.galois as galois
    import repro.dmr.plan as plan
    import repro.dmr.refine as refine
    import repro.dmr.sequential as sequential
    from repro.meshing.mesh import TriMesh

    return [(TriMesh, "write_triangle", "meshing.write_triangle"),
            (plan, "retriangulate", "meshing.retriangulate"),
            (plan, "delaunay_cavity", "meshing.delaunay_cavity"),
            (plan, "locate", "meshing.locate"),
            (refine, "apply_plan", "dmr.apply_plan"),
            (galois, "apply_plan", "dmr.apply_plan"),
            (sequential, "apply_plan", "dmr.apply_plan"),
            (refine, "three_phase_mark", "core.three_phase_mark")]


def run(seed: int, seconds: float, trace: bool, *,
        triangles: int = TRIANGLES, setup_reps: int = SETUP_REPS,
        recorder: Recorder | None = None) -> Outcome:
    from repro.meshing.generate import random_mesh

    out = Outcome()
    meshes = []
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        meshes.append(random_mesh(triangles, seed=seed))
        out.setup.append(time.perf_counter() - t0)
    base = meshes[0]
    out.tally.check(len({mesh_digest(m) for m in meshes}) == 1,
                    "random_mesh differs between set-ups with one seed")
    out.digests["input"] = mesh_digest(base)
    del meshes
    run_driver = drivers(seed)
    first: dict[str, tuple] = {}
    per_driver = {d: [] for d in DRIVERS}
    results = {}

    def one_pass(rec: Recorder | None) -> float:
        wall = 0.0
        for name in DRIVERS:
            mesh = base.copy()
            t0 = time.perf_counter()
            if rec is None:
                res = run_driver[name](mesh)
            else:
                with rec.span(f"dmr.{name}"):
                    res = run_driver[name](mesh)
            dt = time.perf_counter() - t0
            wall += dt
            if rec is None:
                per_driver[name].append(dt)
            check(name, res)
            results[name] = res
        return wall

    def check(name: str, res) -> None:
        tally = out.tally
        valid = True
        try:
            res.mesh.validate()
        except AssertionError as exc:
            valid = f"validate failed: {exc}"
        fact = (mesh_digest(res.mesh), modeled_s(name, res))
        first.setdefault(name, fact)
        tally.check(res.converged and valid is True and fact == first[name],
                    f"dmr.{name}: converged={res.converged} valid={valid} "
                    f"same-as-first-pass={fact == first[name]}")

    if trace:
        untraced = one_pass(None)
        out.passes.append(untraced)
        rec = recorder or Recorder()
        with patched(rec, trace_targets()):
            traced = one_pass(rec)
        out.layers.update(dmr_layers(rec, results))
        out.layers["meshing.random_mesh.s"] = median(out.setup)
        out.layers["trace.overhead_s"] = traced - untraced
        for name in DRIVERS:
            out.layers[f"dmr_{name}_s"] = per_driver[name][0]
    else:
        while more_time(out.passes, seconds):
            out.passes.append(one_pass(None))
    for name in DRIVERS:
        out.digests[f"dmr.{name}"] = first[name][0]
        out.modeled[f"vgpu.modeled_s.dmr_{name}"] = first[name][1]
    out.notes["triangles"] = int(base.num_triangles)
    out.notes["per_driver_s"] = per_driver
    out.rss_mb = self_rss_mb()
    return out


def dmr_layers(rec: Recorder, results: dict) -> dict:
    agg = by_name(rec.spans)
    layers = {}
    for name in ("meshing.write_triangle", "meshing.retriangulate",
                 "dmr.apply_plan", "core.three_phase_mark"):
        a = agg.get(name, {"calls": 0, "self_s": 0.0})
        layers[f"{name}.calls"] = a["calls"]
        layers[f"{name}.self_s"] = a["self_s"]
    # The batched planner in ``dmr.refine`` walks and grows cavities
    # itself; the scalar ``locate``/``delaunay_cavity`` run only on its
    # fallback path, so their call counts say whether that path ran.
    for name in ("meshing.delaunay_cavity", "meshing.locate"):
        layers[f"{name}.calls"] = agg.get(name, {"calls": 0})["calls"]
    for name in DRIVERS:
        res = results[name]
        layers[f"dmr.{name}.self_s"] = agg[f"dmr.{name}"]["self_s"]
        layers[f"dmr.{name}.rounds"] = res.rounds
        layers[f"dmr.{name}.abort_ratio"] = abort_ratio(res)
    return layers
