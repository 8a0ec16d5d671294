"""Tests for Delaunay mesh refinement: planning, sequential, GPU-style,
and speculative-multicore implementations."""

import numpy as np
import pytest

from repro.core.adaptive import FeedbackAdaptiveConfig
from repro.dmr import (DMRConfig, apply_plan, plan_refinement, prepare_fans,
                       refine_galois, refine_gpu, refine_sequential,
                       reorder_mesh)
from repro.errors import RecyclePoolExhausted
from repro.meshing.generate import random_mesh
from repro.meshing.gpu_insert import gpu_insert_points
from repro.serve.jobs import digest_arrays
from repro.vgpu import CostModel
from repro.vgpu.faults import DeviceFaultPlan, DeviceFaultRule
from repro.vgpu.sync import NAIVE_ATOMIC


class TestPlanning:
    def test_plan_for_bad_triangle(self, small_mesh, rng):
        m = small_mesh
        slot = int(m.bad_slots()[0])
        p = plan_refinement(m, slot, rng=rng)
        assert p.ok
        assert len(p.cavity) >= 1
        assert set(p.cavity).isdisjoint(p.ring)

    def test_plan_deleted_slot(self, small_mesh, rng):
        m = small_mesh.copy()
        slot = int(m.bad_slots()[0])
        m.delete([slot])
        p = plan_refinement(m, slot, rng=rng)
        assert not p.ok
        assert p.reason == "deleted"

    def test_cavity_is_live(self, small_mesh, rng):
        m = small_mesh
        p = plan_refinement(m, int(m.bad_slots()[2]), rng=rng)
        assert not m.isdel[p.cavity].any()

    def test_apply_reduces_or_relocates_badness(self, small_mesh, rng):
        m = small_mesh.copy()
        slot = int(m.bad_slots()[0])
        p = plan_refinement(m, slot, rng=rng)
        start = m.n_tris
        need = len(p.cavity) + 4
        m.ensure_tri_capacity(start + need)
        m.n_tris = start + need
        with prepare_fans(m, [p]) as fans:
            info = apply_plan(fans, 0, np.arange(start, start + need))
        m.validate()
        if not p.on_boundary:
            assert m.isdel[slot]  # the bad triangle was in its own cavity
        assert info.new_point == m.n_pts - 1

    def test_apply_skipped_plan_raises(self, small_mesh, rng):
        m = small_mesh.copy()
        slot = int(m.bad_slots()[0])
        m.delete([slot])
        p = plan_refinement(m, slot, rng=rng)
        with pytest.raises(ValueError):
            apply_plan(prepare_fans(m, [p]), 0, np.arange(10))

    def test_claims_include_ring(self, small_mesh, rng):
        m = small_mesh
        p = plan_refinement(m, int(m.bad_slots()[1]), rng=rng)
        assert set(p.claims) == set(p.cavity) | set(p.ring)


class TestSequential:
    def test_converges_small(self, small_mesh):
        m = small_mesh.copy()
        res = refine_sequential(m)
        assert res.converged
        assert not res.guards_bound
        m.validate()
        live = m.live_slots()
        assert np.rad2deg(m.min_angles(live)).min() >= 30.0 - 1e-9

    def test_mesh_grows(self, small_mesh):
        m = small_mesh.copy()
        before = m.num_triangles
        res = refine_sequential(m)
        assert m.num_triangles > before
        assert res.points_added > 0

    def test_max_points_guard(self, small_mesh):
        m = small_mesh.copy()
        res = refine_sequential(m, max_points=5)
        assert res.guards_bound
        assert res.points_added == 5

    def test_counter_populated(self, small_mesh):
        m = small_mesh.copy()
        res = refine_sequential(m)
        assert res.counter.kernel("seq.refine").items == res.processed
        assert res.counter.kernel("seq.refine").word_reads > 0

    def test_already_good_mesh_noop(self, small_mesh):
        m = small_mesh.copy()
        refine_sequential(m)
        res2 = refine_sequential(m)
        assert res2.processed == 0


class TestGpuRefine:
    def test_converges(self, small_mesh):
        res = refine_gpu(small_mesh.copy())
        assert res.converged
        res.mesh.validate()
        live = res.mesh.live_slots()
        assert np.rad2deg(res.mesh.min_angles(live)).min() >= 30.0 - 1e-9

    def test_determinism_same_seed(self, small_mesh):
        r1 = refine_gpu(small_mesh.copy(), DMRConfig(seed=3))
        r2 = refine_gpu(small_mesh.copy(), DMRConfig(seed=3))
        assert r1.processed == r2.processed
        assert r1.rounds == r2.rounds
        assert r1.mesh.num_triangles == r2.mesh.num_triangles

    def test_layout_opt_copies_input(self, small_mesh):
        m = small_mesh.copy()
        n = m.num_triangles
        refine_gpu(m, DMRConfig(layout_opt=True))
        assert m.num_triangles == n  # original untouched

    def test_no_layout_mutates_copy_semantics(self, small_mesh):
        m = small_mesh.copy()
        res = refine_gpu(m, DMRConfig(layout_opt=False))
        assert res.mesh is m  # refined in place when no reorder

    def test_aborts_are_counted(self, medium_mesh):
        res = refine_gpu(medium_mesh.copy())
        assert res.aborted_conflicts > 0  # conflicts must occur
        ks = res.counter.kernel("dmr.refine")
        assert ks.aborted == res.aborted_conflicts + res.aborted_geometry

    def test_central_worklist_has_more_conflicts(self, medium_mesh):
        local = refine_gpu(medium_mesh.copy(), DMRConfig(seed=1))
        central = refine_gpu(medium_mesh.copy(),
                             DMRConfig(seed=1, local_worklists=False))
        assert central.converged and local.converged
        assert central.abort_ratio > local.abort_ratio

    def test_float32_still_converges(self, small_mesh):
        res = refine_gpu(small_mesh.copy(), DMRConfig(precision="float32"))
        assert res.converged
        res.mesh.validate()
        assert res.counter.scalars["fp_scale"] == 0.5

    @pytest.mark.allow_races
    def test_two_phase_unsafe_can_corrupt_or_survive(self, small_mesh):
        # Section 7.3's race, made executable: without the third marking
        # phase two overlapping cavities can both win.  The kernel meets
        # the resulting inconsistencies as geometry aborts; some seeds
        # still converge to a valid mesh, others corrupt it.
        for seed, max_rounds, survives in ((0, 400, True), (1, 400, True),
                                           (2, 5, False)):
            res = refine_gpu(small_mesh.copy(),
                             DMRConfig(seed=seed, conflict="2phase-unsafe",
                                       max_rounds=max_rounds))
            assert res.aborted_geometry > 0, seed
            if survives:
                assert res.converged, seed
                res.mesh.validate()
            else:
                with pytest.raises(AssertionError,
                                   match="shared edge mismatch"):
                    res.mesh.validate()

    def test_locks_mode_counts_atomics(self, small_mesh):
        res = refine_gpu(small_mesh.copy(), DMRConfig(conflict="locks"))
        assert res.converged
        assert res.counter.kernel("dmr.refine").atomics > 0

    def test_3phase_counts_no_lock_atomics(self, small_mesh):
        res = refine_gpu(small_mesh.copy(), DMRConfig(conflict="3phase"))
        assert res.counter.kernel("dmr.refine").atomics == 0

    def test_naive_barrier_config_recorded(self, small_mesh):
        res = refine_gpu(small_mesh.copy(),
                         DMRConfig(barrier=NAIVE_ATOMIC))
        assert res.counter.scalars["barrier_kind"] == NAIVE_ATOMIC.index

    def test_feedback_adaptive(self, small_mesh):
        cfg = DMRConfig(adaptive=FeedbackAdaptiveConfig(initial_tpb=64))
        res = refine_gpu(small_mesh.copy(), cfg)
        assert res.converged

    def test_growth_strategies(self, small_mesh):
        ondemand = refine_gpu(small_mesh.copy(),
                              DMRConfig(seed=2, growth_factor=1.0))
        roomy = refine_gpu(small_mesh.copy(),
                           DMRConfig(seed=2, growth_factor=2.0))
        # on-demand uses in-kernel malloc, never host reallocs
        assert ondemand.counter.scalars.get("kernel_mallocs", 0) > 0
        assert ondemand.counter.scalars.get("reallocs", 0) == 0
        # over-allocation reallocs rarely and never kernel-mallocs
        assert roomy.counter.scalars.get("kernel_mallocs", 0) == 0
        assert roomy.counter.scalars.get("reallocs", 0) <= 6

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            DMRConfig(conflict="magic")
        with pytest.raises(ValueError):
            DMRConfig(precision="float16")

    def test_parallelism_profile_nonempty(self, small_mesh):
        res = refine_gpu(small_mesh.copy())
        assert len(res.parallelism) > 0
        assert sum(res.parallelism) == res.processed


class TestReorderMesh:
    def test_preserves_triangle_count_and_validity(self, small_mesh):
        m = reorder_mesh(small_mesh)
        m.validate(check_delaunay=True)
        assert m.num_triangles == small_mesh.num_triangles

    def test_improves_locality(self, medium_mesh):
        from repro.core.layout import layout_quality
        from repro.core.ragged import Ragged

        def adjacency(mesh):
            live = mesh.live_slots()
            pos = {int(s): i for i, s in enumerate(live)}
            rows = [[pos[int(u)] for u in mesh.nbr[s] if u >= 0]
                    for s in live.tolist()]
            return Ragged.from_lists(rows)

        before = layout_quality(adjacency(medium_mesh))
        after = layout_quality(adjacency(reorder_mesh(medium_mesh)))
        assert after < before


class TestGalois:
    def test_converges(self, small_mesh):
        res = refine_galois(small_mesh.copy(), threads=8)
        assert res.converged
        res.mesh.validate()

    def test_single_thread_no_aborts(self, small_mesh):
        res = refine_galois(small_mesh.copy(), threads=1)
        assert res.converged
        assert res.aborted == 0

    def test_more_threads_more_aborts(self, medium_mesh):
        r1 = refine_galois(medium_mesh.copy(), threads=2, seed=5)
        r48 = refine_galois(medium_mesh.copy(), threads=48, seed=5)
        assert r48.aborted >= r1.aborted
        assert r48.rounds < r1.rounds

    def test_invalid_threads(self, small_mesh):
        with pytest.raises(ValueError):
            refine_galois(small_mesh.copy(), threads=0)


class TestCrossImplementationAgreement:
    def test_all_reach_quality_bound(self, small_mesh):
        """All three implementations must converge to the same quality
        criterion (meshes differ — processing order matters — but every
        output satisfies the 30-degree bound)."""
        for result in (refine_sequential(small_mesh.copy()),
                       refine_galois(small_mesh.copy(), threads=4),
                       refine_gpu(small_mesh.copy())):
            mesh = result.mesh if hasattr(result, "mesh") else result
            live = mesh.live_slots()
            assert np.rad2deg(mesh.min_angles(live)).min() >= 30.0 - 1e-9

    def test_growth_factors_similar(self, small_mesh):
        """Triangle growth should be in the same ballpark across
        implementations (they solve the same problem)."""
        seq = refine_sequential(small_mesh.copy())
        gpu = refine_gpu(small_mesh.copy())
        ratio = gpu.mesh.num_triangles / seq.mesh.num_triangles
        assert 0.7 < ratio < 1.4


def full_state_digest(mesh):
    """Digest of every mesh array a driver writes, counters and capacity."""
    n, q = mesh.n_tris, mesh.n_pts
    return digest_arrays(
        (mesh.tri[:n], mesh.nbr[:n], mesh.nbr_edge[:n], mesh.isdel[:n],
         mesh.isbad[:n], mesh.px[:q], mesh.py[:q]),
        extra={"n_tris": n, "n_pts": q,
               "cap": [mesh.tri.shape[0], mesh.px.size]})


def _insert_300(mesh):
    rng = np.random.default_rng(11)
    return gpu_insert_points(mesh, rng.uniform(0.3, 0.7, 300),
                             rng.uniform(0.3, 0.7, 300))


#: (run, cost-model clock, state digest, modeled seconds) per
#: configuration, recorded from the per-winner drivers that preceded the
#: bulk fan write
DRIVER_PINS = {
    "gpu-3phase": (
        lambda m: refine_gpu(m, DMRConfig()), "gpu",
        "e20e857c1ea1fef961c226aaa8cb719cb725cfbc80361b1a4bec83daedca6952",
        0.0076492547789855075),
    "gpu-float32": (
        lambda m: refine_gpu(m, DMRConfig(precision="float32")), "gpu",
        "6a86e68428e92816c799383fabf8368264c8835a441ae77318e4b4c7862c38f4",
        0.007589865213768116),
    "gpu-2phase-unsafe": (
        lambda m: refine_gpu(m, DMRConfig(conflict="2phase-unsafe",
                                          max_rounds=20)), "gpu",
        "3e49e2291c0ac9ff3573289695bdb6660ec10ad185ff33dcbf101df61b6367cd",
        0.004102291626811594),
    "gpu-locks-ondemand-central": (
        lambda m: refine_gpu(m, DMRConfig(conflict="locks",
                                          growth_factor=1.0,
                                          local_worklists=False)), "gpu",
        "50242d241fbdfd6ef05b1edb14f6e0caa3a6da32c5a25ab058d2ab1a33303842",
        0.013201843583333333),
    "galois-4": (
        lambda m: refine_galois(m, threads=4), 4,
        "de3381d1b9576da37d6344d41ea55980a7f74f9a4e5301cadda70199c8944a8b",
        0.0422310845),
    "galois-48": (
        lambda m: refine_galois(m, threads=48), 48,
        "9361f34a7239275581f2b886f5173b8d009ed09c42ee1f225b0a250d4ac155f2",
        0.03133452775),
    "sequential-300": (
        lambda m: refine_sequential(m, max_points=300), "serial",
        "cf0d13173a912efa308c9bdf87421fb17acffa79eb88442fc1e116e3cd05bf55",
        0.0037077475),
    "gpu-insert-300": (
        _insert_300, "gpu",
        "ec045d23ef043cb04f70e9b1b93640e886e13c51320c136091eeda6c94f68b50",
        0.024599259130434783),
}


@pytest.fixture(scope="module")
def pin_mesh():
    return random_mesh(1500, seed=3)


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=pytest.mark.allow_races) if "unsafe" in n else n
    for n in DRIVER_PINS])
def test_driver_output_pinned(pin_mesh, name):
    """Refined mesh state and modeled seconds are byte-identical to the
    per-winner retriangulation loop's, on every driver and scheme."""
    run, clock, digest, seconds = DRIVER_PINS[name]
    res = run(pin_mesh.copy())
    cm = CostModel()
    modeled = (cm.gpu_time(res.counter) if clock == "gpu" else
               cm.serial_time(res.counter) if clock == "serial" else
               cm.cpu_time(res.counter, clock))
    assert full_state_digest(res.mesh) == digest
    assert modeled == seconds


@pytest.mark.parametrize("run,digest", [
    (lambda m: refine_gpu(m, DMRConfig(layout_opt=False)),
     "c43b6a62059342f272d56460b0bc02b8f19334715dddaf86f565eafc16e2c1dd"),
    (lambda m: gpu_insert_points(
        m, *np.random.default_rng(2).uniform(0.3, 0.7, (2, 200))),
     "a49f403eca8b232ff332e191d3038946817ae647191eb7e1b4483d58085e1fd3"),
], ids=["refine_gpu", "gpu_insert_points"])
def test_fault_mid_wave_leaves_the_taken_fans_written(run, digest):
    """A typed fault that propagates out of a wave (the 37th recycle-pool
    release fails, no resilience) leaves the mesh as the per-winner loop
    left it: every fan taken before the fault is written."""
    mesh = random_mesh(800, seed=3)
    plan = DeviceFaultPlan.of(DeviceFaultRule("pool_exhausted", at=(37,)))
    with pytest.raises(RecyclePoolExhausted):
        with plan.injector().activate():
            run(mesh)
    assert full_state_digest(mesh) == digest
