"""solver-mix: SP, Andersen points-to and Boruvka MST, with no mesh work.

Why: exercises ``satsp``/``pta``/``mst``/``graphgen`` and never touches
``meshing`` or ``gateway``, so it is the "no change expected" workload
for mesh and serving work, and the one that moves for solver work.

One pass runs, each as timed operations:

* ``run_sp`` on a random 3-SAT instance with 10k variables.  The budget
  is fixed at 12 phases of exactly 40 survey iterations (``eps=0``), 480
  iterations on every seed.  Fig. 9's convergence-dependent budget
  (``max_iters=100``) runs 421 to 608 iterations depending on the
  instance, which would make the time a property of the seed.
* ``andersen_pull`` on all six SPEC2000-sized constraint sets of Fig. 10.
* ``boruvka_gpu`` on Fig. 11's six graphs at 1/100 scale.

Outside the timer: SP ends without contradiction with finite surveys in
[0, 1] and the same iteration count on every pass; points-to sets equal
``andersen_serial``'s; MST weights equal ``kruskal``'s; every output
digest and modeled time equals the first pass's.
"""

from __future__ import annotations

import time

import numpy as np

from measure import Outcome, more_time, self_rss_mb
from spans import Recorder, by_name, patched

SETUP_REPS = 3
SP_VARS = 10_000
SP_CONFIG = {"max_iters": 40, "eps": 0.0, "max_phases": 12,
             "require_convergence": False}
#: Fig. 11's graph set at 1/100 scale: name -> (generator, size args)
GRAPHS = {"USA": ("road_network", (239_000,)),
          "W": ("road_network", (63_000,)),
          "RMAT20": ("rmat", (16, 8)),
          "Random4-20": ("random_graph", (65_536, 4 * 65_536)),
          "grid-2d-24": ("grid2d", (410,)),
          "grid-2d-20": ("grid2d", (102,))}


def make_inputs(seed: int, scale: int = 1) -> dict:
    """Every input of one pass; ``scale`` divides the sizes (tests)."""
    from repro import graphgen
    from repro.pta import SPEC2000, generate_constraints
    from repro.satsp import random_ksat

    graphs = {}
    for k, (name, (gen, args)) in enumerate(GRAPHS.items()):
        if gen == "rmat":
            args = (args[0] - (scale - 1).bit_length(), args[1])
        else:
            args = tuple(max(8, a // scale) for a in args)
        graphs[name] = getattr(graphgen, gen)(*args, seed=seed * 16 + k)
    pta = {name: generate_constraints(max(8, v // scale), max(8, c // scale),
                                      seed=seed)
           for name, (v, c) in SPEC2000.items()}
    # SP hands off below 256 unfixed variables, so keep the smoke size above
    return {"sat": random_ksat(max(400, SP_VARS // scale), 3, seed=seed),
            "pta": pta, "graphs": graphs}


def inputs_digest(inputs: dict) -> str:
    from repro.serve.jobs import digest_arrays

    arrays = [inputs["sat"].vars, inputs["sat"].signs]
    for cons in inputs["pta"].values():
        arrays += [cons.kind, cons.lhs, cons.rhs]
    for n, src, dst, w in inputs["graphs"].values():
        arrays += [np.asarray([n]), src, dst, w]
    return digest_arrays(arrays)


def serial_bits(res, cons):
    """``andersen_serial``'s points-to sets as a :class:`BitMatrix`."""
    from repro.pta import BitMatrix, andersen_serial

    serial = andersen_serial(cons)
    bm = BitMatrix(res.pts.bits.shape[0], res.pts.universe)
    sizes = [len(s) for s in serial.pts]
    members = [m for s in serial.pts for m in sorted(s)]
    bm.add(np.repeat(np.arange(len(sizes)), sizes), members)
    return bm


def trace_targets():
    import repro.satsp.sp as sp
    from repro.pta.bitset import BitMatrix
    from repro.satsp.factorgraph import FactorGraph

    return [(sp, "survey_iteration", "satsp.survey_iteration"),
            (sp, "exclude_one", "satsp.exclude_one"),
            (FactorGraph, "decimate", "satsp.decimate"),
            (BitMatrix, "union_into", "pta.union_into")]


def run(seed: int, seconds: float, trace: bool, *, scale: int = 1,
        setup_reps: int = SETUP_REPS,
        recorder: Recorder | None = None) -> Outcome:
    from repro.core.counters import OpCounter
    from repro.mst import boruvka_gpu, kruskal
    from repro.pta import andersen_pull
    from repro.satsp import FactorGraph, SPConfig
    from repro.satsp.sp import run_sp
    from repro.serve.jobs import digest_arrays
    from repro.vgpu import CostModel

    out = Outcome()
    made = []
    for _ in range(setup_reps):
        t0 = time.perf_counter()
        made.append(make_inputs(seed, scale))
        out.setup.append(time.perf_counter() - t0)
    inputs = made[0]
    out.digests["input"] = inputs_digest(inputs)
    out.tally.check(all(inputs_digest(m) == out.digests["input"]
                        for m in made[1:]),
                    "inputs differ between set-ups with one seed")
    del made
    cm = CostModel()
    cfg = SPConfig(seed=seed, **SP_CONFIG)
    first: dict[str, tuple] = {}
    parts = {"sp": [], "pta": [], "mst": []}
    facts = {}

    def timed(label: str, fn, rec: Recorder | None):
        t0 = time.perf_counter()
        if rec is None:
            res = fn()
        else:
            with rec.span(label):
                res = fn()
        return res, time.perf_counter() - t0

    def same_as_first(key: str, fact: tuple) -> bool:
        return first.setdefault(key, fact) == fact

    def one_pass(rec: Recorder | None) -> float:
        tally = out.tally
        wall = {"sp": 0.0, "pta": 0.0, "mst": 0.0}

        fg = FactorGraph(inputs["sat"], seed=seed)
        ctr = OpCounter()
        (phases, iters, contra), dt = timed(
            "sp", lambda: run_sp(fg, cfg, ctr), rec)
        wall["sp"] += dt
        eta = fg.eta
        same = same_as_first("sp", (digest_arrays(
            (fg.fixed, eta), {"phases": phases, "iterations": iters}),
            cm.gpu_time(ctr)))
        tally.check(not contra and bool(np.all(np.isfinite(eta)))
                    and float(eta.min()) >= 0.0 and float(eta.max()) <= 1.0
                    and same,
                    f"sp: contradiction={contra} iterations={iters} "
                    f"eta in [{eta.min()}, {eta.max()}] "
                    f"same-as-first-pass={same}")
        facts["sp"] = {"phases": phases, "iterations": iters}

        rounds = edges = 0
        modeled = 0.0
        for name, cons in inputs["pta"].items():
            res, dt = timed(f"pta.{name}", lambda: andersen_pull(cons), rec)
            wall["pta"] += dt
            rounds += res.rounds
            edges += res.edges_added
            modeled += cm.gpu_time(res.counter)
            key = f"pta.{name}"
            ok = key in first or res.pts.equal(serial_bits(res, cons))
            same = same_as_first(key, (digest_arrays((res.pts.bits,)),))
            tally.check(ok and same, f"pta {name}: equals andersen_serial="
                                     f"{ok} same-as-first-pass={same}")
        facts["pta"] = {"rounds": rounds, "edges_added": edges,
                        "modeled_s": modeled}

        mst = {}
        modeled = 0.0
        for name, (n, src, dst, w) in inputs["graphs"].items():
            res, dt = timed(f"mst.boruvka_gpu.{name}",
                            lambda: boruvka_gpu(n, src, dst, w), rec)
            wall["mst"] += dt
            modeled += cm.gpu_time(res.counter)
            mst[name] = res.rounds
            key = f"mst.{name}"
            weight = int(res.total_weight)
            ok = key in first or \
                weight == int(kruskal(n, src, dst, w).total_weight)
            same = same_as_first(key, (digest_arrays(
                (np.sort(res.mst_edges),)), weight))
            tally.check(ok and same, f"mst {name}: weight {weight} equals "
                                     f"kruskal={ok} same-as-first-pass={same}")
        facts["mst"] = {"rounds": mst, "modeled_s": modeled}

        for key in ("pta", "mst"):
            tally.check(same_as_first(f"{key}.modeled",
                                      (facts[key]["modeled_s"],)),
                        f"{key}: modeled time differs from the first pass")
        if rec is None:
            for key, value in wall.items():
                parts[key].append(value)
        return sum(wall.values())

    if trace:
        untraced = one_pass(None)
        out.passes.append(untraced)
        rec = recorder or Recorder()
        with patched(rec, trace_targets()):
            traced = one_pass(rec)
        out.layers.update(solver_layers(rec, facts))
        out.layers["trace.overhead_s"] = traced - untraced
        for key in parts:
            out.layers[f"{key}_s"] = parts[key][0]
    else:
        while more_time(out.passes, seconds):
            out.passes.append(one_pass(None))

    for key in sorted(first):
        if not key.endswith(".modeled"):
            out.digests[key] = first[key][0]
    out.modeled["vgpu.modeled_s.sp"] = first["sp"][1]
    out.modeled["vgpu.modeled_s.pta"] = first["pta.modeled"][0]
    out.modeled["vgpu.modeled_s.mst"] = first["mst.modeled"][0]
    out.notes["sp_iterations"] = facts["sp"]["iterations"]
    out.notes["per_driver_s"] = parts
    out.rss_mb = self_rss_mb()
    return out


def solver_layers(rec: Recorder, facts: dict) -> dict:
    agg = by_name(rec.spans)
    layers = {}
    for name in ("satsp.survey_iteration", "satsp.exclude_one",
                 "satsp.decimate", "pta.union_into"):
        a = agg.get(name, {"calls": 0, "self_s": 0.0})
        layers[f"{name}.calls"] = a["calls"]
        layers[f"{name}.self_s"] = a["self_s"]
    layers["pta.rounds"] = facts["pta"]["rounds"]
    layers["pta.edges_added"] = facts["pta"]["edges_added"]
    for name, rounds in facts["mst"]["rounds"].items():
        layers[f"mst.boruvka_gpu.{name}.rounds"] = rounds
        layers[f"mst.boruvka_gpu.{name}.self_s"] = \
            agg[f"mst.boruvka_gpu.{name}"]["self_s"]
    return layers
