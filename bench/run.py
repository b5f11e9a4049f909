"""End-to-end benchmark of enetpipe.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process through the public
``enetpipe.cli.main`` entry point, as one closed-loop client: each round's
commands run back to back, and the next round starts when the last one
ends. BLAS is pinned to one thread, so the process computes on one core.

Rounds walk the workload's pool of input sets, again and again, until
less than a median round of the ``--seconds`` budget is left. The first
``MIN_SETUP_BUILDS`` rounds, or one pass over the pool if it is larger,
each build their input set from the seed first (a small pool is built
again, to the same inputs), so set-up is timed several times;
``setup_s`` is the median build and ``wall_s`` the median round.

The host is a shared virtual machine: the same work runs up to half as long
again from one minute to the next, on one core and not the other, and no
statistic of a forty-second run escapes that. So before every build and
round the run times ``probe()``, a fixed reference kernel, and reports
``wall_s`` and ``setup_s`` scaled to the core speed at which the probe takes
``REFERENCE_PROBE_S``: measured seconds x ``REFERENCE_PROBE_S`` / median
probe seconds. Changes in the program move them as they move the measured
times; the unscaled times go to the result file and are printed.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics. With ``--trace 1`` the run builds only the first input
set and alternates untraced and traced rounds on it; the JSON holds the
per-layer metrics, unscaled, as medians over traced rounds
(``trace.wall_s`` and ``trace.untraced_wall_s`` are the fastest rounds of
each kind), and the spans go to
``.bench_work/trace-<workload>-seed<seed>.json``. Every result, with the
machine record, is also written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = 1
# Seconds of probe() on an idle core of the machine the benchmark was made
# on; times are reported scaled to that speed.
REFERENCE_PROBE_S = 0.005
MIN_SETUP_BUILDS = 8


def import_program():
    """Pin BLAS threads, then import enetpipe from this checkout's src/, or
    exit with code 2."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import enetpipe.cli
    except ImportError as exc:
        print(f"cannot import enetpipe from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(enetpipe.__file__).resolve().is_relative_to(SRC):
        print(f"enetpipe resolved to {enetpipe.__file__}, not under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return enetpipe.cli


def machine_record() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform()}


class Client:
    """Runs CLI commands in-process, capturing their console output."""

    def __init__(self, cli_module, recorder=None):
        self.cli = cli_module
        self.recorder = recorder
        self.errors = []

    def __call__(self, argv) -> int:
        out, err = io.StringIO(), io.StringIO()
        span = (self.recorder.span(f"cli.{argv[0]}") if self.recorder
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with span:
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not the end
                traceback.print_exc()
                code = -1
        if code != 0:
            self.errors.append(f"{argv[0]}: {err.getvalue()[-800:]}")
        return code


def run_round(client, workload, inputs, out: Path, digests: dict, slot: int,
              tally):
    """One round: the workload's commands back to back. Returns the
    seconds of each command and the outcome; the outputs are checked after
    the clock stops, and must match the first round's on the same input
    set."""
    out.mkdir(parents=True, exist_ok=True)
    times, codes = [], []
    for argv in workload.commands(inputs, out):
        started = time.perf_counter()
        codes.append(client(argv))
        times.append(time.perf_counter() - started)
    outcome = workload.check(inputs, out, codes, digests.get(slot), tally)
    digests.setdefault(slot, outcome.digest)
    return times, outcome


@functools.cache
def probe_inputs():
    import numpy as np
    rng = np.random.default_rng(0)
    text = "\n".join(",".join(f"{x:.6g}" for x in row)
                     for row in rng.standard_normal((40, 100)))
    return (rng.standard_normal((200, 200)), rng.standard_normal(200_000),
            text)


def probe(repeats: int = 3) -> list:
    """Seconds of a fixed reference kernel, run `repeats` times: the same
    kinds of work as the program (BLAS, sorting and exponentials over an
    array, parsing decimal text, an interpreted loop), about 7 ms a go."""
    import numpy as np
    matrix, vector, text = probe_inputs()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(3):
            matrix @ matrix
        np.exp(np.sort(vector))
        [float(x) for line in text.split("\n") for x in line.split(",")]
        total = 0
        for i in range(20000):
            total += i * i
        times.append(time.perf_counter() - started)
    return times


def timed_run(cli, workload, seed: int, seconds: float, work: Path, tally):
    from workloads import sub_seed

    client = Client(cli)
    pool, setup_times, probes = {}, [], []
    round_times, command_times, outcomes, digests = [], [], {}, {}
    builds = max(workload.pool_size, MIN_SETUP_BUILDS)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        slot = index % workload.pool_size
        if len(setup_times) < builds:
            # Build input set `slot`, or the same inputs again.
            directory = work / f"input{slot}"
            directory.mkdir(parents=True, exist_ok=True)
            probes += probe()
            started = time.perf_counter()
            pool[slot] = workload.build(client, sub_seed(seed, slot),
                                        directory)
            setup_times.append(time.perf_counter() - started)
            workload.check_inputs(pool[slot], tally)
        probes += probe()
        times, outcome = run_round(client, workload, pool[slot],
                                   work / f"out{slot}", digests, slot, tally)
        round_times.append(sum(times))
        command_times.append(times)
        outcomes.setdefault(slot, outcome)
        index += 1
        if (index >= builds and deadline - time.perf_counter()
                < statistics.median(round_times)):
            break

    def mean_of(attr):
        values = [getattr(o, attr) for o in outcomes.values()
                  if getattr(o, attr) is not None]
        return statistics.fmean(values) if values else 0.0

    scale = REFERENCE_PROBE_S / statistics.median(probes)
    metrics = {
        "wall_s": (statistics.median(round_times) * scale, "s"),
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "accuracy": (mean_of("accuracy"), "fraction"),
        "baseline_accuracy": (mean_of("baseline_accuracy"), "fraction"),
        "ok_share": (1.0 - tally.failed / max(1, tally.attempted), "fraction"),
    }
    detail = {"unscaled": {"wall_s": statistics.median(round_times),
                           "setup_s": statistics.median(setup_times),
                           "probe_s": statistics.median(probes)},
              "round_s": round_times,
              "command_s": command_times,
              "setup_s": setup_times,
              "probe_s": probes,
              "accuracy_by_set": {str(k): [o.accuracy, o.baseline_accuracy]
                                  for k, o in sorted(outcomes.items())},
              "digests": {str(k): v for k, v in sorted(digests.items())},
              "errors": client.errors}
    return metrics, detail


def traced_run(cli, workload, seed: int, seconds: float, work: Path, tally):
    import tracing
    from workloads import sub_seed

    recorder = tracing.Recorder()
    plain, traced = Client(cli), Client(cli, recorder)
    directory = work / "input0"
    directory.mkdir(parents=True)
    with recorder.installed(), recorder.span("setup"):
        inputs = workload.build(traced, sub_seed(seed, 0), directory)
    workload.check_inputs(inputs, tally)
    setup_spans = list(recorder.spans)

    untraced_times, traced_times, per_round, digests = [], [], [], {}
    deadline = time.perf_counter() + seconds
    while True:
        times, _ = run_round(plain, workload, inputs, work / "out0",
                             digests, 0, tally)
        untraced_times.append(sum(times))
        first_span = len(recorder.spans)
        with recorder.installed():
            times, outcome = run_round(traced, workload, inputs,
                                       work / "out0", digests, 0, tally)
        traced_times.append(sum(times))
        totals = tracing.aggregate(setup_spans + recorder.spans[first_span:])
        values = tracing.layer_values(totals)
        values["elm.predict_latency_ms"] = outcome.latency_ms or 0.0
        per_round.append(values)
        pair = untraced_times[-1] + traced_times[-1]
        if deadline - time.perf_counter() < pair:
            break

    units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    units.update({name: spec[0]
                  for name, spec in tracing.DERIVED_METRICS.items()})
    metrics = {name: (statistics.median(r[name] for r in per_round), units[name])
               for name in per_round[0]}
    metrics["trace.wall_s"] = (min(traced_times), "s")
    metrics["trace.untraced_wall_s"] = (min(untraced_times), "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0]
                                   - metrics["trace.untraced_wall_s"][0], "s")
    metrics["trace.spans"] = (len(recorder.spans), "count")

    called = {s["name"] for s in recorder.spans}
    absent = {}
    for _, _, span, _ in tracing.LAYER_METRICS.values():
        if span not in called:
            layer = span.split(".")[0]
            absent[span] = workload.absent.get(
                span, workload.absent.get(layer, "not called"))
    detail = {"round_s": traced_times, "untraced_round_s": untraced_times,
              "digests": {str(k): v for k, v in digests.items()},
              "absent": absent, "computed": sorted(tracing.COMPUTED),
              "errors": plain.errors + traced.errors, "spans": recorder.spans}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    tally = Tally()
    run = traced_run if args.trace else timed_run
    try:
        metrics, detail = run(cli, workload, args.seed, args.seconds, work,
                              tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record()
    spans = detail.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              **detail}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "machine": machine,
             "absent": detail["absent"], "computed": detail["computed"],
             "spans": spans}))
        print(f"spans: {trace_file.relative_to(ROOT)} ({len(spans)})")

    print(f"machine: {json.dumps(machine)}")
    print(f"rounds: {len(detail['round_s'])}  digests: {detail['digests']}")
    for layer, reason in detail.get("absent", {}).items():
        print(f"absent: {layer}: {reason}")
    for problem in tally.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for error in detail["errors"][:5]:
        print(f"stderr: {error}", file=sys.stderr)
    print(f"failed_share: {tally.failed / max(1, tally.attempted):.6g} "
          f"fraction ({tally.failed} of {tally.attempted} operations)")
    for name, value in detail.get("unscaled", {}).items():
        print(f"unscaled {name}: {value:.6g} s")
    computed = detail.get("computed", ())
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in computed else ""
        print(f"{name}: {value:.6g} {unit}{label}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
