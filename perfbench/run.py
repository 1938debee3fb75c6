#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload backlog-xl --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this directory
and driven only through its public API.  One run:

1. warms up on a 20-job slice of the workload (untimed);
2. draws a workload from ``--seed`` and runs it twice — set-up, run,
   checks — then the next draw, and so on for about ``--seconds``
   (at least three draws; a pair is only started if half of it fits);
3. with ``--trace 0`` reports the end-to-end metrics: medians over the
   repeats, latency quantiles over every round and job of the run;
   with ``--trace 1`` runs each draw once untraced and once traced and
   reports the per-layer metrics (medians over the traced repeats) and
   the tracing overhead.

Every repeat is checked outside the timed region: the Section 3.1 audit,
the drained free-vector check, every job finished, the stream's
offered == committed == finished, and an identical placement digest,
mean JCT and makespan across the repeats of each draw.  The last line
of stdout is the result object; progress and findings go to stderr.
See README.md.
"""

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: draws every run completes, whatever --seconds says; the simulated
#: outcomes (mean JCT, makespan) are the median over exactly these
MIN_DRAWS = 3
MIN_SETUPS = 5
WARMUP_JOBS = 20
#: stop starting repeats after this long, whatever --seconds says
HARD_STOP_S = 140.0


def _import_program() -> bool:
    """Import the program from this checkout's ``src/``; False if absent.

    Pins the numeric libraries to one thread and the kernel backend to
    its default first: both are read when numpy and repro load.
    """
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = "1"
    os.environ.pop("REPRO_BACKEND", None)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return False
    if Path(repro.__file__).resolve().parent.parent != src:
        print(
            f"perfbench: repro resolved to {repro.__file__}, not {src}",
            file=sys.stderr,
        )
        return False
    return True


def end_to_end(plain, setups):
    """Medians over repeats (and over draws for the simulated outcomes);
    latency quantiles pool every round and job of the run."""
    from perfbench.workloads import percentile

    rounds_ms = [s * 1e3 for r in plain for s in r.round_s]
    first_ms = [ms for r in plain for ms in r.first_placement_ms]
    # a fixed set of draws, so the simulated outcomes depend on the seed
    # alone and not on how many draws the host managed
    by_draw = {r.draw: r for r in plain if r.draw < MIN_DRAWS}.values()
    return {
        "setup_s": (median(setups), "s"),
        "placements_per_s": (median([r.placements_per_s for r in plain]), "1/s"),
        "round_ms_p50": (percentile(rounds_ms, 50), "ms"),
        "round_ms_p99": (percentile(rounds_ms, 99), "ms"),
        "first_placement_ms_p50": (percentile(first_ms, 50), "ms"),
        "first_placement_ms_p95": (percentile(first_ms, 95), "ms"),
        "mean_jct_s": (median([r.mean_jct_s for r in by_draw]), "s"),
        "makespan_s": (median([r.makespan_s for r in by_draw]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tracer, rep):
    """Per-layer metrics of one traced repeat."""
    stats = tracer.stats
    out = {}
    for label, st in stats.items():
        out[f"{label}.calls"] = (st.calls, "count")
        out[f"{label}.self_s"] = (st.self_s, "s")
        out[f"{label}.total_s"] = (st.total_s, "s")
    # the engine's own loop time, whichever call drove it
    out["sim.engine.self_s"] = (
        stats["sim.engine"].self_s + stats["serve.run_until"].self_s,
        "s",
    )
    rounds = len(rep.round_s)
    out["schedulers.machines_per_round"] = (
        rep.machines_visited / rounds if rounds else 0.0,
        "ratio",
    )
    out["schedulers.placements_per_machine"] = (
        rep.placements / rep.machines_visited if rep.machines_visited else 0.0,
        "ratio",
    )
    fluid = rep.fluid_stats
    recomputes = fluid.get("sparse_recomputes", 0)
    out["sim.fluid.flows_per_recompute"] = (
        fluid.get("flows_recomputed", 0) / recomputes if recomputes else 0.0,
        "ratio",
    )
    out["sim.fluid.stale_heap_pops"] = (fluid.get("stale_heap_pops", 0), "count")
    finished = stats["workload.note_task_finished"]
    out["workload.stages_released_per_call"] = (
        finished.counted / finished.calls if finished.calls else 0.0,
        "ratio",
    )
    out["serve.next_batch_wait_s"] = (stats["serve.next_batch"].wait_s, "s")
    out["serve.queue_depth_peak"] = (rep.queue_depth_peak, "count")
    out["trace.root_self_s"] = (tracer.root_self_s, "s")
    out["trace.absent_hooks"] = (len(tracer.absent), "count")
    return out


def per_layer(plain, traced):
    """Medians over the traced repeats, plus what needs both kinds."""
    from perfbench.workloads import percentile

    samples = [layer_metrics(tracer, rep) for tracer, rep in traced]
    out = {
        name: (median([s[name][0] for s in samples]), unit)
        for name, (_, unit) in samples[0].items()
    }
    # paired by draw: a draw's traced repeat runs right after its plain one
    out["trace.overhead_frac"] = (
        median([t.drive_s / p.drive_s for p, (_, t) in zip(plain, traced)]) - 1.0,
        "ratio",
    )
    late = [percentile(r.gen_late_ms, 95) for r in plain if r.gen_late_ms]
    out["serve.gen_late_ms_p95"] = (median(late) if late else 0.0, "ms")
    return out


def host_reference_ms() -> float:
    """Time a fixed pure-Python loop, independent of the program: a
    yardstick for how fast the shared host ran.  It is reported beside
    the metrics, never used to adjust them."""
    start = perf_counter()
    table = {}
    for i in range(200_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return (perf_counter() - start) * 1e3


def draw_seed(seed: int, draw: int) -> int:
    """The input seed of the run's ``draw``-th workload draw."""
    import numpy as np

    return int(np.random.SeedSequence([seed, draw]).generate_state(1)[0])


def measure(workload, seed, seconds, trace):
    """Run repeats in pairs over successive draws until ``seconds`` pass.

    Untraced, each draw runs twice; traced, each draw runs once plain
    and once traced.  Either way every draw is repeated, which the
    cross-check needs, and the medians cover several draws.
    """
    from perfbench.tracer import Tracer
    from perfbench.workloads import build, run_repeat

    start = perf_counter()
    deadline = start + seconds
    warm = run_repeat(workload, draw_seed(seed, 0), max_jobs=WARMUP_JOBS)
    warm.draw = -1
    repeats = [("warm-up", warm)]
    plain, traced = [], []
    raised = 0  # jobs of a repeat that raised
    host_ms = []
    i = 0
    pair_s = 0.0  # duration of the last completed pair
    while i % 2 or i < 2 * MIN_DRAWS or (
        perf_counter() + pair_s / 2 < deadline
        and perf_counter() - start < HARD_STOP_S
    ):
        if i % 2 == 0:
            pair_start = perf_counter()
        draw = i // 2
        tracer = Tracer() if trace and i % 2 else None
        host_ms.append(host_reference_ms())
        try:
            rep = run_repeat(workload, draw_seed(seed, draw), tracer=tracer)
        except Exception:  # noqa: BLE001 - the program failed: report it
            traceback.print_exc()
            raised = workload.population.num_jobs
            break
        rep.draw = draw
        if tracer is None:
            plain.append(rep)
            repeats.append(("plain", rep))
        else:
            traced.append((tracer, rep))
            repeats.append(("traced", rep))
            if tracer.absent:
                print(f"  absent hooks: {', '.join(tracer.absent)}", file=sys.stderr)
        print(
            f"  {repeats[-1][0]:7s} draw {draw} setup {rep.setup_s:.3f}s "
            f"drive {rep.drive_s:.3f}s {rep.placements_per_s:.0f} placements/s "
            f"digest {rep.digest[:12]}",
            file=sys.stderr,
        )
        i += 1
        if i % 2 == 0:
            pair_s = perf_counter() - pair_start
    setups = [r.setup_s for r in plain]
    while not raised and not trace and len(setups) < MIN_SETUPS:
        gc.collect()
        t0 = perf_counter()
        build(workload, draw_seed(seed, 0))
        setups.append(perf_counter() - t0)
    return repeats, plain, traced, setups, raised, host_ms


def cross_check(repeats):
    """Every draw's repeats placed identically, with equal outcomes."""
    first = {}
    for _, rep in repeats:
        key = (rep.digest, rep.mean_jct_s, rep.makespan_s)
        ref = first.setdefault(rep.draw, key)
        if key != ref:
            rep.problems.append(
                f"draw {rep.draw} differs between repeats: digest/mean JCT/"
                f"makespan {key[0][:12]}/{key[1]!r}/{key[2]!r} vs "
                f"{ref[0][:12]}/{ref[1]!r}/{ref[2]!r}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        return 2
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(
        f"perfbench: {workload.name} seed {args.seed} "
        f"{args.seconds:g}s trace {args.trace}",
        file=sys.stderr,
    )
    repeats, plain, traced, setups, raised, host_ms = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    print(f"  host reference loop: median {median(host_ms):.2f} ms", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("perfbench: no repeat completed; no result", file=sys.stderr)
        return 1
    cross_check(repeats)
    attempted = raised + sum(rep.jobs for _, rep in repeats)
    failed = raised + sum(
        rep.jobs if rep.problems else rep.unfinished for _, rep in repeats
    )
    for kind, rep in repeats:
        for problem in rep.problems:
            print(f"  CHECK FAILED ({kind}): {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(plain, traced)
        metrics["host.ref_ms"] = (median(host_ms), "ms")
    else:
        metrics = end_to_end(plain, setups)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
