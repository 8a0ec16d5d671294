"""Wall-clock benchmark of the reproduction, one workload per run.

    python3 perfbench/run.py --workload dmr-refine --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is the ``src/`` next to this
directory, imported from source.  Workloads (see ``BENCHMARK.json`` and
each workload module's docstring): ``dmr-refine``, ``solver-mix``,
``gateway-http``.

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced stretch of the
same work, wraps each layer's public functions from this directory's
files (``spans.py``), and reports the per-layer metrics, including the
tracing overhead and the spans written to ``perfbench/out/``.

Every metric is printed with its unit and sample count, followed by the
output digests, the modeled seconds (``vgpu.modeled_s.*``) and the
environment stamp.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run without the
program's source exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dmr-refine", "solver-mix", "gateway-http")


def workload_runner(name: str):
    if name == "dmr-refine":
        import dmr_refine
        return dmr_refine.run
    if name == "solver-mix":
        import solver_mix
        return solver_mix.run
    import gateway_http
    return gateway_http.run


def end_to_end(out) -> tuple[dict, dict]:
    """The end-to-end metric values and their sample counts."""
    from measure import median

    values = {"setup_s": median(out.setup),
              "wall_s": median(out.passes),
              "peak_rss_mb": out.rss_mb}
    samples = {"setup_s": len(out.setup), "wall_s": len(out.passes),
               "peak_rss_mb": 1}
    return values, samples


def per_layer(out, declared: list[str]) -> dict:
    """Every declared per-layer metric; a layer the workload never
    reached reads 0."""
    values = dict(out.layers)
    values.update(out.modeled)
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    return {name: values.get(name, 0) for name in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import environment
    from spans import Recorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    recorder = Recorder() if args.trace else None
    t0 = time.perf_counter()
    out = workload_runner(args.workload)(args.seed, args.seconds,
                                         bool(args.trace),
                                         recorder=recorder)
    elapsed = time.perf_counter() - t0
    if args.trace:
        values = per_layer(out, list(units))
        samples = dict(out.samples)
    else:
        values, samples = end_to_end(out)
        missing = sorted(set(units) - set(values))
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")

    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"(run took {elapsed:.1f} s)")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        n = samples.get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"metric {name} = {values[name]!r} {unit}{count}")
    for name, value in sorted(out.modeled.items()):
        print(f"modeled {name} = {value!r} s")
    for name, value in sorted(out.digests.items()):
        print(f"digest {name} = {value}")
    print(f"operations attempted={out.tally.attempted} "
          f"failed={out.tally.failed}")
    for reason in out.tally.failures:
        print(f"failed: {reason}")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": env, "elapsed_s": elapsed,
              "metrics": {k: {"value": values[k], "unit": units[k],
                              "samples": samples.get(k)} for k in units},
              "setup_s": out.setup, "passes_s": out.passes,
              "modeled_s": out.modeled, "digests": out.digests,
              "notes": out.notes, "attempted": out.tally.attempted,
              "failures": out.tally.failures}
    if recorder is not None:
        record["spans"] = str(recorder.write(OUT / f"spans-{tag}.jsonl.gz")
                              .relative_to(ROOT))
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(record, indent=1, default=repr) + "\n")

    print(json.dumps({
        "correct": out.tally.failed == 0,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
