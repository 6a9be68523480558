"""Batch command front end: detector design tables, simulations, self tests.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 self-test/acceptance failure.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys

from .analysis import design_detector, write_threshold_table
from .errors import ConfigError, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdsss",
        description="Underlay scheduling-request link simulator and detector designer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser(
        "design-threshold",
        help="solve CFAR thresholds for (L, sigma^2, K, M, PFA) grids and write a CSV table",
    )
    p_design.add_argument("--l-taps", type=_int_list, default=[40])
    p_design.add_argument("--noise-var", type=_float_list, default=[1.0])
    p_design.add_argument("--k-bits", type=_int_list, default=[1])
    p_design.add_argument("--m-of-n", type=_int_list, default=[1])
    p_design.add_argument("--target-pfa", type=_float_list, default=[1e-3])
    p_design.add_argument("--out", default="out")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_sim.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_sim.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry by dotted path, e.g. channel.rms_delay_spread_ns=300",
    )

    p_self = sub.add_parser("selftest", help="run built-in numerical invariant checks")
    p_self.add_argument("--filter", default="", help="run only checks whose name contains this")
    return parser


def _apply_override(mapping: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override must look like key=value, got {spec!r}")
    path, raw = spec.split("=", 1)
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"empty override path in {spec!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = mapping
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} does not address an object")
    node[keys[-1]] = value


def _cmd_design_threshold(args) -> int:
    for noise_var in args.noise_var:
        if not (math.isfinite(noise_var) and noise_var > 0):
            raise ConfigError(f"noise variance must be finite and positive, got {noise_var}")
    for pfa in args.target_pfa:
        if not 0.0 < pfa < 1.0:
            raise ConfigError(f"target PFA must be in (0, 1), got {pfa}")
    for l_taps in args.l_taps:
        if l_taps < 1:
            raise ConfigError(f"L must be >= 1, got {l_taps}")
    for k_bits in args.k_bits:
        n_pairs = k_bits * (k_bits + 1) // 2
        if k_bits < 1 or not all(1 <= m_of_n <= n_pairs for m_of_n in args.m_of_n):
            raise ConfigError(
                f"need K >= 1 and every M in [1, K(K+1)/2], got K={k_bits}, M={args.m_of_n}"
            )
    entries = []
    for l_taps in args.l_taps:
        for noise_var in args.noise_var:
            for k_bits in args.k_bits:
                for m_of_n in args.m_of_n:
                    for pfa in args.target_pfa:
                        entries.append(
                            (k_bits, design_detector(pfa, k_bits, m_of_n, l_taps, noise_var))
                        )
    path = os.path.join(args.out, "thresholds.csv")
    write_threshold_table(path, entries)
    print(f"wrote {len(entries)} design rows to {path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # the experiment engine loads numpy; design-threshold never needs it
    from .experiments import ExperimentConfig, run_experiment, write_sidecar

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {args.config} is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(mapping, dict):
        raise ConfigError("config root must be a JSON object")
    for spec in args.overrides:
        _apply_override(mapping, spec)
    if args.seed is not None:
        mapping["master_seed"] = args.seed
    config = ExperimentConfig.from_mapping(mapping)
    config.designs  # a design that fails exits before anything is written
    write_sidecar(config, {}, args.out)  # full resolved config lands on disk before trials
    result = run_experiment(config, jobs=max(1, args.jobs))
    csv_path, sidecar = result.write(args.out)
    print(f"wrote {csv_path} and {sidecar}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_checks  # its quadrature check needs scipy; other commands do not

    results = run_checks(args.filter)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    summary = {
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK if summary["failed"] == 0 and results else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    # Freeze every object alive at exit, so that interpreter shutdown does not
    # walk numpy's and the package's objects in its garbage collections.
    # Unregistering first keeps it to one hook however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "design-threshold":
            return _cmd_design_threshold(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
