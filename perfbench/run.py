"""Run one workload of the sasm benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports sasm from that
checkout's src/ and nowhere else.  With --trace 0 it measures the end-to-end
metrics with tracing off, scaled to a reference machine speed by a speed
gauge (calibrate.py); with --trace 1 it records spans and reports the
per-layer metrics, the self time of each span and the tracing overhead.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  Everything the run measured, with the spans of a traced run, is
also written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("array_max_retained", "list_map_retained", "scratch_check")


def use_checkout_sources() -> None:
    """Put the checkout's src/ first on the import path; refuse to run
    against any other copy of sasm."""
    if not os.path.isfile(os.path.join(SRC, "sasm", "__init__.py")):
        raise SystemExit(f"error: no sasm sources under {SRC}; run the "
                         f"benchmark from the root of a sasm checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sasm
    if os.path.dirname(os.path.abspath(sasm.__file__)) != os.path.join(SRC,
                                                                        "sasm"):
        raise SystemExit(f"error: imported sasm from {sasm.__file__}, "
                         f"not from {SRC}")


def machine_info(workload: str, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _counts(samples) -> str:
    """Samples taken and distinct operations they time, per kind."""
    return "  ".join(
        f"{kind}={sum(map(len, d.values()))} over {len(d)} operations"
        for kind, d in (("builds", samples.build), ("batches", samples.batch),
                        ("passes", samples.pass_)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    use_checkout_sources()
    import workloads as W

    trace = bool(args.trace)
    rep = W.run(args.workload, args.seed, args.seconds, trace)
    info = machine_info(args.workload, args.seed)
    e2e = W.end_to_end(rep)
    unscaled = W.end_to_end(rep, scaled=False)
    layers = W.per_layer(rep) if trace else {}
    reported = layers if trace else e2e
    units = W.PER_LAYER if trace else W.END_TO_END

    print(f"# sasm benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for i, c in enumerate(rep.census):
        for when in ("start", "end"):
            print(f"census round={i} {when} batches={c['batches']}  " +
                  "  ".join(f"{k}={v}" for k, v in c[when].items()))
    print(f"checks attempted={rep.attempted} failed={rep.failed} "
          f"fail_ratio={_fmt(rep.failed / max(1, rep.attempted))}")
    for msg in rep.failures:
        print(f"FAIL {msg}", file=sys.stderr)
    print("samples untraced: " + _counts(rep.plain))
    g = rep.gauge
    print(f"gauge probes={len(g.durations)} best_ms="
          f"{_fmt(min(g.durations) * 1e3)} median_ms="
          f"{_fmt(statistics.median(g.durations) * 1e3)} "
          f"spent_s={_fmt(g.spent)}")
    print("unscaled wall-clock: " + "  ".join(
        f"{name}={_fmt(value)}" for name, value in unscaled.items()))
    for name, value in reported.items():
        print(f"metric {name} = {_fmt(value)} {units[name]}")
    if trace:
        print("samples traced: " + _counts(rep.traced))
        print("self time by span (whole traced run, set-up included):")
        print(f"  {'span':44} {'calls':>7} {'total_ms':>11} {'self_ms':>11}")
        table = rep.spans.self_times()
        for name, row in sorted(table.items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"  {name:44} {row['calls']:7d} {row['total_ms']:11.3f} "
                  f"{row['self_ms']:11.3f}")
        print(f"tracing overhead: prop_ms_p50 "
              f"{layers['tracing_overhead.prop_ms_p50']:+.4f} ms, "
              f"pass_ms_p50 {layers['tracing_overhead.pass_ms_p50']:+.4f} ms")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump({
            "machine": info,
            "seconds": args.seconds,
            "trace": args.trace,
            "attempted": rep.attempted,
            "failed": rep.failed,
            "failures": rep.failures,
            "gauge": {"times": g.times, "durations": g.durations,
                      "spent_s": g.spent},
            "setup_samples": rep.setup_s,
            "samples": {kind: {repr(key): v for key, v in d.items()}
                        for kind, d in (("build", rep.plain.build),
                                        ("batch", rep.plain.batch),
                                        ("pass", rep.plain.pass_))},
            "end_to_end": e2e,
            "end_to_end_unscaled": unscaled,
            "per_layer": layers,
            "counts": rep.counts,
            "census": rep.census,
            "self_times": rep.spans.self_times() if trace else {},
            "spans": rep.spans.records if trace else [],
        }, fh)
    print(f"results written to {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
