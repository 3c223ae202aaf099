"""coopmesh benchmark: one workload, one base seed, one run.

    python3 perfbench/run.py --workload rpl_lossy --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs one round untraced and one round traced and prints the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--out FILE`` also
appends the result with its provenance to FILE (JSON lines) for compare.py.
The simulator is imported from ``src/`` of the checkout this file sits in;
the run fails when that is missing. Host times are scaled to a reference
host speed (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import HostClock

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result here (JSON lines)")
    return parser.parse_args(argv)


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_simulator(now) -> float:
    """Import numpy and coopmesh from this checkout; return seconds taken."""
    src = ROOT / "src"
    if not (src / "coopmesh" / "__init__.py").is_file():
        raise SystemExit(f"coopmesh sources not found under {src}")
    sys.path.insert(0, str(src))
    start = now()
    import numpy  # noqa: F401
    import coopmesh.cli  # noqa: F401
    import coopmesh.sim_engine
    elapsed = now() - start
    if src.resolve() not in Path(coopmesh.sim_engine.__file__).resolve().parents:
        raise SystemExit(f"coopmesh imported from outside {src}")
    return elapsed


def set_up(workloads, name, seed, clock):
    """Build the round and finish one untimed warm-up run, SETUP_REPEATS
    times. Returns the units, each repeat's (seconds, first pass, end pass)
    for scaling it by the reference passes taken during it, and the
    warm-up outcomes."""
    samples, warmups = [], []
    for _ in range(SETUP_REPEATS):
        first_pass = len(clock.references)
        start = clock.now()
        units = workloads.build_units(name, seed, RESULTS)
        _, outcome = workloads.execute(workloads.build_warmup(name, seed, RESULTS))
        samples.append((clock.now() - start, first_pass, len(clock.references)))
        warmups.append(outcome)
    return units, samples, warmups


def timed_pass(workloads, units, seconds, now):
    """Run the round's units round-robin: one full round, then further units
    while each is expected, from its last time, to end within ``seconds``.
    Returns per-unit call times and outcomes; a repeat whose outputs differ
    from the unit's first run counts as failed."""
    times = [[] for _ in units]
    first = [None] * len(units)
    repeats = []
    start = now()
    i = 0
    while True:
        k = i % len(units)
        if i >= len(units) and (
            not times[k] or now() - start + times[k][-1] > seconds
        ):
            break
        elapsed, outcome = workloads.execute(units[k], now)
        if first[k] is None:
            first[k] = outcome
        else:
            if outcome.record != first[k].record and not outcome.failed:
                fail([outcome], f"unit {k}: repeat gave different outputs")
            repeats.append(outcome)
        if not outcome.failed:
            times[k].append(elapsed)
        i += 1
    return times, first, repeats


def end_to_end(workloads, args, import_s, import_passes, clock):
    units, setup_parts, warmups = set_up(workloads, args.workload, args.seed, clock)
    setup_passes = len(clock.references)
    times, first, repeats = timed_pass(workloads, units, args.seconds, clock.now)
    clock.stop()
    check_pinned(workloads, args, first)
    outcomes = warmups + first + repeats
    # Throughput over the whole timed pass: every timed call's packets over
    # the sum of their host times. A sum, like the clock's mean, weighs fast
    # and slow phases of the host the same way on both sides of the scale.
    packets = sum(o.packets * len(t) for o, t in zip(first, times))
    timed_s = sum(sum(t) for t in times)
    # Import is paid once per process and counted in every set-up sample;
    # each part is scaled by the passes taken while it ran.
    setup_samples = [import_s + s for s, _, _ in setup_parts]
    import_scaled = clock.scale(import_s, last=import_passes)
    setup_scaled = [import_scaled + clock.scale(s, a, b) for s, a, b in setup_parts]
    attempted = sum(o.attempted for o in outcomes)
    metrics = {
        "packets_per_s": packets / clock.scale(timed_s, first=setup_passes) if timed_s else 0.0,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - sum(o.failed for o in outcomes) / attempted,
    }
    samples = {
        "packets_per_s": sum(len(t) for t in times),
        "setup_s": len(setup_samples),
        "peak_rss_mb": 1,
        "ok_share": attempted,
    }
    extra = {"round_digest": workloads.digest([o.record for o in first]),
             "unit_packets": [o.packets for o in first], "unit_times": times,
             "setup_times": setup_samples, "setup_parts": setup_parts,
             "import_passes": import_passes, "timed_from_pass": setup_passes,
             "reference_s": clock.references,
             "unscaled": {"packets_per_s": packets / timed_s if timed_s else 0.0,
                          "setup_s": statistics.median(setup_samples)}}
    return metrics, samples, outcomes, extra


def traced(workloads, tracer_mod, args, clock):
    units, _, warmups = set_up(workloads, args.workload, args.seed, clock)
    plain = [workloads.execute(u) for u in units]
    with tracer_mod.Tracer() as tracer:
        traced_runs = [workloads.execute(u) for u in units]
    plain_outcomes = [o for _, o in plain]
    traced_outcomes = [o for _, o in traced_runs]
    check_pinned(workloads, args, plain_outcomes)
    for k, (a, b) in enumerate(zip(plain_outcomes, traced_outcomes)):
        if a.record != b.record:
            fail([b], f"unit {k}: traced outputs differ from untraced")
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (
        sum(t for t, _ in traced_runs) - sum(t for t, _ in plain)
    )
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    dump = dict(tracer.dump(), workload=args.workload, seed=args.seed,
                provenance=provenance(args))
    spans_path.write_text(json.dumps(dump), encoding="utf-8")
    samples = {name: 1 for name in metrics}
    extra = {"round_digest": workloads.digest([o.record for o in plain_outcomes]),
             "traced_digest": workloads.digest([o.record for o in traced_outcomes]),
             "spans": str(spans_path)}
    return metrics, samples, warmups + plain_outcomes + traced_outcomes, extra


def fail(outcomes, message) -> None:
    """Count every run of these outcomes as failed, with the reason."""
    for outcome in outcomes:
        outcome.failed = outcome.attempted
    outcomes[0].errors.append(message)


def check_pinned(workloads, args, round_outcomes) -> None:
    """At the default seed the round's outputs must match the digest pinned
    in workloads.py; a mismatch fails every run of the round."""
    if args.seed != workloads.DEFAULT_SEED:
        return
    pinned = workloads.PINNED_DIGESTS[args.workload]
    got = workloads.digest([o.record for o in round_outcomes])
    if got != pinned:
        fail(round_outcomes, f"round digest {got} != pinned {pinned}")


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "base_seed": args.seed,
        "seconds": args.seconds,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    clock = HostClock()
    # The traced run keeps the sampler off: its passes would land in the
    # layers' self times.
    if not args.trace:
        clock.start()
    try:
        import_s = import_simulator(clock.now)
        import_passes = len(clock.references)
        import tracer as tracer_mod
        import workloads

        RESULTS.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, samples, outcomes, extra = traced(workloads, tracer_mod, args, clock)
            declared = spec["per_layer"]
        else:
            metrics, samples, outcomes, extra = end_to_end(workloads, args, import_s, import_passes, clock)
            declared = spec["end_to_end"]
    finally:
        clock.stop()
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for outcome in outcomes:
        for error in outcome.errors:
            print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "provenance": provenance(args),
            "samples": {m["name"]: samples[m["name"]] for m in declared},
            **extra,
            "result": result,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
