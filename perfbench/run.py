"""The cpdsss benchmark: end-to-end and per-layer cost of the simulator.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --steady 10 --seconds 48
    python3 perfbench/run.py --record-reference

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it runs the microbenchmarks and a traced
run that gives the per-layer metrics. Every run checks the package's
outputs and prints every metric with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Metric names, units, bounds and the reason for each workload are
read from BENCHMARK.json; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
TRACE_PAIRS = 2
CLI_MAIN = "import sys; from cpdsss.cli import main; sys.exit(main())"
# The span that covers one traced rep: child.py opens "bench.rep"; for the
# CLI the whole child process is the rep.
ROOT_SPAN = dict.fromkeys(wl.WORKLOADS, "bench.rep") | {"cli_roc_jobs2": "cli.process"}
OPS_NAME = {"design_grid": "designs_per_s"}  # every other workload counts trials


class BenchError(Exception):
    """The benchmark cannot produce a result (no package, no successful operation)."""


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


# ----------------------------------------------------------------- processes --

def child_env(one_blas_thread: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if one_blas_thread:
        # design_grid and the microbenchmarks are single-job runs, so BLAS gets
        # one core too. With its default thread count an OpenBLAS helper thread
        # spin-waits on the second core and the rate follows whatever else runs there.
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(argv: list[str], timeout: float) -> dict:
    """Run a child to completion; its wall time, exit code, stderr and peak RSS.

    Children of child.py run with one BLAS thread; the CLI workload keeps
    the environment a user has.
    """
    one_blas_thread = argv[1] == str(HERE / "child.py") and argv[2] != "cli"
    with tempfile.TemporaryFile(dir=OUT) as err:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(one_blas_thread),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end_ns = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "wall_s": (end_ns - start_ns) / 1e9,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "code": proc.returncode,
        "stderr": stderr[-2000:],
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def child(*args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def run_child_json(argv: list[str], out_path: Path, timeout: float) -> tuple[dict, dict]:
    proc = spawn(argv, timeout)
    if proc["code"] != 0:
        raise BenchError(f"child {argv[2:4]} exited {proc['code']}: {proc['stderr']}")
    data = json.loads(out_path.read_text())
    out_path.unlink()
    return data, proc


def cli_rep(seed: int, jobs: int, *extra: str, spans_path: Path | None = None):
    """One `cpdsss simulate` process on the benchmark's ROC config; (proc, csv, sidecar).

    With ``spans_path`` the same command runs under child.py with tracing on.
    """
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        args = ["simulate", "--config", str(wl.CLI_CONFIG_PATH), "--out", tmp,
                "--seed", str(seed), "--jobs", str(jobs), *extra]
        if spans_path is None:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        else:
            argv = child("cli", spans_path, *args)
        proc = spawn(argv, timeout=60)
        name = wl.cli_config()["name"]
        outputs = [Path(tmp, name + ext) for ext in (".csv", ".config.json")]
        csv_bytes, sidecar_bytes = [p.read_bytes() if p.exists() else None for p in outputs]
    return proc, csv_bytes, sidecar_bytes


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------- checks --

class Tally:
    """Operations attempted and failed, every failure's reason, and the solved tails' errors."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tail_errs: list[float] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def experiment(self, label, workload, csv_text, derived, mapping, extra=()) -> None:
        """One ROC run: rate rows against the reference, and its thresholds."""
        import checks

        rows = checks.parse_csv(csv_text)
        problems = list(extra) + checks.check_rows(rows, self.reference[workload])
        for design in checks.designs_from_derived(derived, mapping):
            design_problems, rel_err = checks.check_design(design)
            problems += design_problems
            self.tail_errs.append(rel_err)
        self.record(label, problems)

    def designs(self, rep: dict, label: str) -> None:
        """One design_grid rep written by child.py; each design is one operation."""
        import checks

        for design in rep["designs"]:
            problems, rel_err = checks.check_design(design)
            self.tail_errs.append(rel_err)
            self.record(label, problems)

    def cli(self, label, proc, csv_bytes, sidecar_bytes, expected) -> None:
        """One CLI process: exit code, byte identity with --jobs 1, then its rows and designs."""
        if proc["code"] != 0 or csv_bytes is None or sidecar_bytes is None:
            self.record(label, [f"exit {proc['code']}: {proc['stderr']}"])
            return
        identical = (csv_bytes, sidecar_bytes) == expected
        sidecar = json.loads(sidecar_bytes)
        self.experiment(label, "cli_roc_jobs2", csv_bytes.decode(), sidecar["derived"],
                        sidecar["config"],
                        [] if identical else ["CSV or sidecar bytes differ from the --jobs 1 run"])


def jobs1_reference(seed: int) -> tuple[bytes, bytes]:
    """Outputs of an untimed --jobs 1 run, which every --jobs 2 run must match byte for byte."""
    proc, csv_bytes, sidecar_bytes = cli_rep(seed, 1)
    if proc["code"] != 0:
        raise BenchError(f"--jobs 1 reference run failed: {proc['stderr']}")
    return csv_bytes, sidecar_bytes


# ---------------------------------------------------------------- untraced --

def measure_setup(workload: str, seed: int, tally: Tally) -> list[float]:
    walls = []
    for i in range(SETUP_REPEATS):
        if workload == "cli_roc_jobs2":
            proc = cli_rep(seed, wl.CLI_JOBS, "--set", "num_trials=1")[0]
        else:
            proc = spawn(child("setup"), timeout=60)
        ok = proc["code"] == 0
        tally.record(f"setup {i}", [] if ok else [f"exit {proc['code']}: {proc['stderr']}"])
        if ok:
            walls.append(proc["wall_s"])
    return walls


def measure_throughput(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Reps for ``seconds``; per-rep ops/s, and the peak RSS of the measuring process."""
    rates, rss = [], []
    if workload == "cli_roc_jobs2":
        trials = wl.trials_per_run(wl.cli_config())
        runs = []
        start = time.monotonic()
        while wl.another_rep(len(runs), time.monotonic() - start,
                             runs[-1][0]["wall_s"] if runs else 0.0, seconds):
            runs.append(cli_rep(seed, wl.CLI_JOBS))
        expected = jobs1_reference(seed)
        for i, (proc, csv_bytes, sidecar_bytes) in enumerate(runs):
            tally.cli(f"rep {i}", proc, csv_bytes, sidecar_bytes, expected)
            if proc["code"] == 0:
                rates.append(trials / proc["wall_s"])
                rss.append(proc["maxrss_mb"])
        return {"rates": rates, "peak_rss_mb": statistics.median(rss) if rss else None}
    out_path = OUT / f"measure-{workload}-{os.getpid()}.json"
    data, proc = run_child_json(child("measure", seed, seconds, out_path), out_path,
                                timeout=seconds + 60)
    for i, rep in enumerate(data["reps"]):
        tally.designs(rep, f"rep {i}")
        rates.append(rep["ops"] / rep["wall_s"])
    return {"rates": rates, "peak_rss_mb": proc["maxrss_mb"]}


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    import checks

    tally = Tally(checks.load_reference())
    setup = measure_setup(workload, seed, tally)
    tput = measure_throughput(workload, seed, seconds, tally)
    if not setup or not tput["rates"] or not tally.tail_errs:
        raise BenchError(f"{workload}: no successful operation to measure; {tally.problems[:5]}")
    rates = tput["rates"]
    metrics = {
        "ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": tput["peak_rss_mb"],
        "design_tail_digits": checks.tail_digits(tally.tail_errs),
    }
    notes = {
        "ops_per_s": f"{OPS_NAME.get(workload, 'trials_per_s')}; median of {len(rates)} reps, "
                     f"quartiles {_quartiles(rates)}",
        "setup_s": f"median of {len(setup)} fresh processes, quartiles {_quartiles(setup)}",
        "peak_rss_mb": "max RSS of the measuring child",
        "design_tail_digits": f"worst of {len(tally.tail_errs)} solved tails, capped at 12",
    }
    return {"metrics": metrics, "notes": notes, "tally": tally,
            "raw": {"rates": rates, "setup_s": setup}}


def _quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6g}..{q3:.6g}"


# ------------------------------------------------------------------ traced --

def trace_cli(seed: int, tally: Tally) -> dict:
    from tracing import load_spans

    spans, synthetic, untraced, traced = [], [], [], []
    expected = jobs1_reference(seed)
    for i in range(TRACE_PAIRS):
        proc, csv_bytes, sidecar_bytes = cli_rep(seed, wl.CLI_JOBS)
        tally.cli(f"untraced rep {i}", proc, csv_bytes, sidecar_bytes, expected)
        untraced.append(proc["wall_s"])
        spans_path = OUT / f"spans-cli-{os.getpid()}-{i}.json"
        proc, csv_bytes, sidecar_bytes = cli_rep(seed, wl.CLI_JOBS, spans_path=spans_path)
        tally.cli(f"traced rep {i}", proc, csv_bytes, sidecar_bytes, expected)
        if proc["code"] != 0 or not spans_path.exists():
            continue
        rep_spans, meta = load_spans(spans_path)
        spans_path.unlink()
        main_tid = meta["main_thread"]
        spans += rep_spans
        # The process itself is the cli layer: interpreter start, imports, exit.
        synthetic += [
            (-1, 0, main_tid, ROOT_SPAN["cli_roc_jobs2"], "cli", proc["start_ns"], proc["end_ns"]),
            (-2, -1, main_tid, "trace.install", "trace", *meta["install_ns"]),
            (-3, -1, main_tid, "trace.write", "trace", meta["write_start_ns"], proc["end_ns"]),
        ]
        traced.append(proc["wall_s"])
    return {"spans": spans, "synthetic": synthetic, "untraced": untraced, "traced": traced}


def trace_inprocess(workload: str, seed: int, tally: Tally) -> dict:
    from tracing import load_spans

    out_path = OUT / f"trace-{workload}-{os.getpid()}.json"
    spans_path = OUT / f"spans-{workload}-{os.getpid()}.json"
    data, _ = run_child_json(child("trace", seed, TRACE_PAIRS, out_path, spans_path),
                             out_path, timeout=150)
    for i, rep in enumerate(data["reps"]):
        tally.designs(rep, f"trace rep {i}")
    spans, _ = load_spans(spans_path)
    spans_path.unlink()
    return {"spans": spans, "synthetic": [], "untraced": data["untraced_wall_s"],
            "traced": data["traced_wall_s"]}


def run_traced(workload: str, seed: int) -> dict:
    import checks
    from tracing import LAYERS, attribute, call_counts

    tally = Tally(checks.load_reference())
    micro_path = OUT / f"micro-{os.getpid()}.json"
    micro, _ = run_child_json(child("micro", seed, micro_path), micro_path, timeout=60)
    if workload == "cli_roc_jobs2":
        tr = trace_cli(seed, tally)
    else:
        tr = trace_inprocess(workload, seed, tally)
    spans = tr["spans"] + tr["synthetic"]
    roots = [s for s in spans if s[3] == ROOT_SPAN[workload]]
    if not roots or None in tr["untraced"] or None in tr["traced"]:
        raise BenchError(f"{workload}: traced run failed; {tally.problems[:5]}")
    n_reps = len(roots)
    wall = sum(s[6] - s[5] for s in roots) / 1e9
    self_s = attribute(spans)
    by_layer, by_name = call_counts(tr["spans"])
    solves = by_name["analysis.solve_threshold"]

    metrics = dict(micro["micro_us"])
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = by_layer[layer] / n_reps
        metrics[f"{layer}.share"] = self_s.get(layer, 0.0) / wall
    metrics["analysis.h0_cdf_calls_per_design"] = by_name["analysis.h0_cdf"] / solves if solves else 0.0
    metrics["rx.window_use_frac"] = wl.window_use_frac(workload)
    metrics["trace.overhead_frac"] = (
        statistics.median(tr["traced"]) / statistics.median(tr["untraced"]) - 1.0
    )
    # Self seconds per rep are printed with the report but kept out of the
    # result line: a layer a workload never calls reads exactly 0 s there.
    layer_self = {layer: self_s.get(layer, 0.0) / n_reps for layer in (*LAYERS, "bench", "trace")}
    notes = {"self_sum": f"per-layer self times sum to {sum(self_s.values()):.6f} s against "
                         f"traced wall {wall:.6f} s over {n_reps} reps"}
    return {"metrics": metrics, "notes": notes, "tally": tally, "layer_self_s": layer_self,
            "raw": {"untraced": tr["untraced"], "traced": tr["traced"]}}


# ------------------------------------------------------------------ reports --

def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = time.monotonic()
    res = run_traced(workload, seed) if trace else run_untraced(workload, seed, seconds)
    res["elapsed_s"] = time.monotonic() - start
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(res["metrics"]) != set(declared):
        raise BenchError(f"metrics {sorted(set(res['metrics']) ^ set(declared))} do not match "
                         "BENCHMARK.json")
    return res


def print_report(workload: str, seed: int, trace: bool, res: dict, env: dict, spec: dict) -> None:
    declared = spec["per_layer" if trace else "end_to_end"]
    tally = res["tally"]
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  ({res['elapsed_s']:.1f} s)")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"why {spec['why'][workload]}")
    for name, value in res["metrics"].items():
        m = declared[name]
        note = res["notes"].get(name, "")
        print(f"  {name:<36} {value:>14.6g} {m['unit']:<7} {m['better']:<6} {note}")
    if trace:
        for layer, value in res["layer_self_s"].items():
            print(f"  {layer + '.self_s':<36} {value:>14.6g} {'s':<7} {'lower':<6} per traced rep")
        print(f"  {res['notes']['self_sum']}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<36} {frac:>14.6g} {'frac':<7} {'lower':<6} "
          f"{tally.failed} of {tally.attempted} operations")
    for problem in tally.problems:
        print(f"  FAIL {problem}")


def result_line(res: dict, trace: bool, spec: dict) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    tally = res["tally"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": declared[k]["unit"]} for k, v in res["metrics"].items()},
    }


def save(record: dict, name: str) -> Path:
    path = OUT / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def cmd_steady(names, seed: int, repeats: int, seconds: float, env: dict, spec: dict) -> dict:
    """Run the workloads untraced with seeds seed..seed+repeats-1; spread of each metric.

    Seeds are the outer loop, so each workload's runs spread over the whole
    session and its spread includes the machine's slow drift.
    """
    seeds = range(seed, seed + repeats)
    values = {w: {name: [] for name in spec["end_to_end"]} for w in names}
    tallies = {w: [0, 0] for w in names}
    for s in seeds:
        for workload in names:
            res = run_one(workload, s, seconds, False, spec)
            print_report(workload, s, False, res, env, spec)
            for name, vals in values[workload].items():
                vals.append(res["metrics"][name])
            tallies[workload][0] += res["tally"].attempted
            tallies[workload][1] += res["tally"].failed
    summary = {"environment": env, "seconds": seconds, "seeds": list(seeds), "workloads": {}}
    ok = True
    for workload in names:
        stats = {}
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = spec["end_to_end"][name]["bound"]
            steady = name == "setup_s" or spread < bound / 3
            ok &= steady
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bound, "steady": steady, "values": vals}
            print(f"steady {workload:<14} {name:<20} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound {bound} "
                  f"{'ok' if steady else 'WIDE'}")
        attempted, failed = tallies[workload]
        summary["workloads"][workload] = {"metrics": stats, "attempted": attempted,
                                          "failed": failed}
        ok &= failed == 0
    summary["steady"] = ok
    return summary


def cmd_record_reference(trials: int, master_seed: int) -> dict:
    """Record reference counts from the current package (run once, on the seed)."""
    sys.path.insert(0, str(SRC))
    import checks
    from cpdsss.experiments import ExperimentConfig, run_experiment

    mappings = {"cli_roc_jobs2": dict(wl.cli_config(), master_seed=master_seed, num_trials=trials)}
    reference = {"recorded_with": {"num_trials": trials, "master_seed": master_seed,
                                   "environment": environment()}}
    for name, mapping in mappings.items():
        result = run_experiment(ExperimentConfig.from_mapping(mapping), jobs=2)
        rows = checks.parse_csv(result.to_csv_text())
        reference[name] = {checks.row_key(r): list(checks.row_count(r)) for r in rows}
        print(f"recorded {len(rows)} rows for {name}")
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat each workload N times with seeds seed..seed+N-1")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current package")
    args = parser.parse_args(argv)

    if not (SRC / "cpdsss" / "__init__.py").is_file():
        print(f"benchmark error: no package source at {SRC / 'cpdsss'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.record_reference:
            reference = cmd_record_reference(trials=20_000, master_seed=2_000_000_007)
            (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
            return 0
        spec = load_spec()
        env = environment()
        if args.steady:
            summary = cmd_steady(names, args.seed, args.steady, args.seconds, env, spec)
            path = save(summary, f"steady-{args.workload}-seed{args.seed}.json")
            print(f"steadiness record written to {path.relative_to(ROOT)}")
            print(json.dumps({"steady": summary["steady"]}))
            return 0
        results = {}
        for workload in names:
            passes = (bool(args.trace),) if args.workload != "all" else (False, True)
            for trace in passes:
                res = run_one(workload, args.seed, args.seconds, trace, spec)
                print_report(workload, args.seed, trace, res, env, spec)
                line = result_line(res, trace, spec)
                save({"workload": workload, "seed": args.seed, "trace": trace,
                      "environment": env, "why": spec["why"][workload], "result": line,
                      "layer_self_s": res.get("layer_self_s"), "problems": res["tally"].problems,
                      "raw": res["raw"]},
                     f"result-{workload}-seed{args.seed}-trace{int(trace)}.json")
                results[(workload, trace)] = line
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        lines = results.values()
        print(json.dumps({
            "correct": all(r["correct"] for r in lines),
            "attempted": sum(r["attempted"] for r in lines),
            "failed": sum(r["failed"] for r in lines),
            "metrics": {f"{w}.{k}": v for (w, _), r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
