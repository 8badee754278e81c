"""`fleet-day`: the repo's absolute, layer-attributed benchmark.

One run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/e2e/run.py --workload idle_fleet_day --seed 2019 \\
        --seconds 15 --trace 0        # end-to-end metrics
    ... --trace 1                     # per-layer table (traced pass)

The whole suite — every workload, interleaved A B C D A B C D, each run
a fresh process, median and quartiles per metric, one traced run per
workload, digests compared across repeats and against ``pins.json``::

    python3 benchmarks/e2e/run.py                  # 5 runs per workload
    python3 benchmarks/e2e/run.py --self-check     # two sets must agree

The last line a single run prints is the result as one JSON object.
See README.md beside this file for the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
DEFAULT_SEED = 2019
#: Untraced runs per workload in one suite set (plus one traced run).
REPEATS = 5
#: ``setup_s`` medians closer than this agree whatever their ratio: a
#: 0.17 s build repeats to a few hundredths of a second, not to 15 %.
SETUP_FLOOR_S = 0.15


def _import_benchmark():
    """The benchmark modules import ``repro`` from the checkout's
    ``src/``; outside a checkout there is nothing to measure."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"fleet-day: no simulator at {src}: run from a checkout")
    # Load shape: one process, one thread.  BLAS would otherwise spread
    # the 98k-parameter tenant's matrix products over every core, and a
    # 2-core box shared with anything else turns that into noise.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import fleetday_measure
    import fleetday_workloads

    return fleetday_measure, fleetday_workloads


# -- one run ---------------------------------------------------------------------
def _format_value(value: float | None) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.6g}"


def run_one(args: argparse.Namespace) -> int:
    measure, workloads = _import_benchmark()
    workload = workloads.BY_NAME[args.workload]
    if args.trace:
        outcome, tracer = measure.run_traced(
            workload, args.seed, args.seconds, tiny=args.tiny
        )
        traced = outcome.passes[-1]
        scale = "tiny" if args.tiny else f"{args.seconds:g}s"
        measure.write_trace(
            measure.OUT_DIR / f"trace-{workload.name}-seed{args.seed}-{scale}.json",
            tracer,
            traced,
            {"workload": workload.name, "seed": args.seed, "scale": scale},
        )
        layers = tracer.layers("window")
        total = sum(layers.values())
        print(f"# {workload.name}: window self time by layer (traced)")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:28s} {seconds:9.4f} s  {100 * seconds / total:5.1f} %")
        for target in tracer.absent:
            print(f"  absent hook: {target}")
    else:
        outcome = measure.run_untraced(
            workload, args.seed, args.seconds, tiny=args.tiny
        )
    result = outcome.passes[-1]
    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:40s} {_format_value(value):>14s} {unit}")
    for name, value in result.stats.items():
        print(f"  {name:40s} {value:>14d} count")
    if result.faults_by_kind:
        print(f"  crashes injected by kind: {result.faults_by_kind}")
    print(f"  window: {result.window_s:.3f} reference s = {result.window_raw_s:.3f} host s "
          f"(box at {result.window_s / result.window_raw_s:.0%} of reference speed); "
          f"build: {result.build_s:.3f} reference s = {result.build_raw_s:.3f} host s")
    pins = measure.load_pins()
    key = measure.pin_key(workload.name, args.seed, args.seconds, args.tiny)
    status = measure.pin_status(result, key, pins)
    print(f"  report_digest {result.digest} ({status})")
    if args.write_pin:
        pins[key] = {"report_digest": result.digest, **result.stats}
        if result.faults_by_kind:
            pins[key]["faults_by_kind"] = result.faults_by_kind
        with open(measure.PINS_PATH, "w", encoding="utf-8") as f:
            json.dump(pins, f, indent=2, sort_keys=True)
            f.write("\n")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")
    # The suite reads the digest from the line before the result: the
    # contract's result object is exactly {correct, attempted, failed,
    # metrics}.
    print(json.dumps({"report_digest": result.digest, "pin": status}))
    print(outcome.to_json())
    return 0


# -- the suite ---------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: int, tiny: bool):
    """One run in a fresh process (fresh heap, own peak RSS); returns
    (result, digest line)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n"
            f"{done.stdout}\n{done.stderr}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, median, p75 = statistics.quantiles(values, n=4)
    return p25, median, p75


def run_set(args: argparse.Namespace, names: list[str]) -> tuple[dict, list[str]]:
    """``REPEATS`` untraced runs per workload, interleaved round-robin,
    then one traced run each.  Returns ({workload: {metric: [values]}},
    failures)."""
    samples: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    digests: dict[str, set[str]] = {name: set() for name in names}
    layers: dict[str, dict] = {}
    failures: list[str] = []
    for repeat in range(REPEATS):
        for name in names:
            result, extra = _spawn(name, args.seed, args.seconds, 0, args.tiny)
            print(f"  run {repeat + 1}/{REPEATS} {name}: pin={extra['pin']}",
                  flush=True)
            digests[name].add(extra["report_digest"])
            if not result["correct"]:
                failures.append(f"{name}: run {repeat + 1} failed its checks")
            for metric, entry in result["metrics"].items():
                samples[name].setdefault(metric, []).append(entry["value"])
    for name in names:
        result, extra = _spawn(name, args.seed, args.seconds, 1, args.tiny)
        print(f"  traced {name}: pin={extra['pin']}", flush=True)
        digests[name].add(extra["report_digest"])
        if not result["correct"]:
            failures.append(f"{name}: traced run failed its checks")
        layers[name] = result["metrics"]
    for name in names:
        if len(digests[name]) != 1:
            failures.append(
                f"{name}: report_digest differs between runs of one seed: "
                f"{sorted(digests[name])}"
            )
    print_spread_table(samples)
    print_layer_table(layers)
    return samples, failures


def print_spread_table(samples: dict) -> None:
    print(f"\n{'workload':24s} {'metric':16s} {'median':>12s} {'p25':>12s} "
          f"{'p75':>12s} {'iqr/med':>8s} {'n':>3s}")
    for name, metrics in samples.items():
        for metric, values in metrics.items():
            p25, median, p75 = _quartiles(values)
            print(f"{name:24s} {metric:16s} {median:12.5g} {p25:12.5g} "
                  f"{p75:12.5g} {(p75 - p25) / median:8.2%} {len(values):3d}")


def print_layer_table(layers: dict) -> None:
    names = list(layers)
    print(f"\n{'per-layer (traced run)':40s} " + " ".join(f"{n[:14]:>14s}" for n in names))
    rows = list(next(iter(layers.values()))) if layers else []
    for row in rows:
        cells = " ".join(
            f"{_format_value(layers[n][row]['value']):>14s}" for n in names
        )
        print(f"{row:40s} {cells} {layers[names[0]][row]['unit']}")


def compare_sets(first: dict, second: dict, bounds: dict) -> list[str]:
    """Every (workload, end-to-end metric): the two medians must agree
    within the metric's own bound (``setup_s``: or within
    :data:`SETUP_FLOOR_S`).  A pair with a side whose quartile spread
    exceeds the bound is labelled ``unresolved`` — agreement there is
    luck, not evidence — but only disagreeing medians fail."""
    problems: list[str] = []
    print(f"\n{'workload':24s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
          f"{'B worse by':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for name in first:
        for metric, (better, bound) in bounds.items():
            a25, a, a75 = _quartiles(first[name][metric])
            b25, b, b75 = _quartiles(second[name][metric])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            spread = max((a75 - a25) / a, (b75 - b25) / b)
            agree = abs(worse) <= bound
            if metric == "setup_s":
                agree = agree or abs(b - a) <= SETUP_FLOOR_S
            verdict = "agree" if agree else "DISAGREE"
            if spread > bound:
                verdict += " (unresolved)"
            if not agree:
                problems.append(f"{name}/{metric}: medians differ by {worse:.1%}")
            print(f"{name:24s} {metric:16s} {a:12.5g} {b:12.5g} "
                  f"{worse:10.2%} {spread:7.2%} {bound:6.0%}  {verdict}")
    return problems


def run_suite(args: argparse.Namespace, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    print(f"fleet-day: seed {args.seed}, {args.seconds:g} s windows, "
          f"{REPEATS} runs x {len(names)} workloads", flush=True)
    first, failures = run_set(args, names)
    if args.self_check:
        print("\nself-check: second set", flush=True)
        second, more = run_set(args, names)
        failures += more
        bounds = {
            m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]
        }
        failures += compare_sets(first, second, bounds)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="host seconds the timed window is sized for "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke scale: <= 200 devices, minutes of sim time")
    parser.add_argument("--write-pin", action="store_true",
                        help="record this run's digest and stats in pins.json "
                             "(a declared re-pin)")
    parser.add_argument("--self-check", action="store_true",
                        help="suite: run two sets; exit non-zero unless every "
                             "pair of medians agrees within its bound")
    args = parser.parse_args(argv)
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is not None:
        return run_one(args)
    return run_suite(args, contract)


if __name__ == "__main__":
    sys.exit(main())
