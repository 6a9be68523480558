"""Child-process side of the benchmark: one measurement, written out as JSON.

Each measurement runs in a child of its own, so that its peak RSS is its
own and set-up is paid in a fresh interpreter. Only the package's public
functions are called. Usage (run.py builds these command lines):

    child.py measure <seed> <seconds> <out.json>              design_grid reps
    child.py setup                                            one design row
    child.py trace   <seed> <pairs> <out.json> <spans.json>   design_grid, traced
    child.py micro   <seed> <out.json>                        microbenchmarks
    child.py cli     <spans.json> <cli arguments...>          cpdsss, traced
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time

import workloads as wl


def _run_designs(grid) -> dict:
    from cpdsss.analysis import design_detector

    designs = []
    start = time.perf_counter()
    for row in grid:
        try:
            d = design_detector(row["target_pfa"], row["k_bits"], row["m_of_n"],
                                row["l_taps"], row["noise_var"])
            designs.append(dict(row, p0=d.p0, eta=d.eta))
        except Exception as exc:  # one failed design is counted, not fatal
            designs.append(dict(row, error=repr(exc)))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "ops": len(grid), "designs": designs}


def _one_rep(order_rng) -> dict:
    """All 81 designs of design_grid once, in an order drawn from ``order_rng``."""
    order = order_rng.permutation(len(wl.DESIGN_GRID))
    return _run_designs([wl.DESIGN_GRID[i] for i in order])


def cmd_measure(seed: int, seconds: float, out_path: str) -> None:
    import numpy as np

    order_rng = np.random.default_rng(seed)
    reps, rep_s = [], 0.0
    start = time.perf_counter()
    while wl.another_rep(len(reps), time.perf_counter() - start, rep_s, seconds):
        rep_start = time.perf_counter()
        reps.append(_one_rep(order_rng))
        rep_s = time.perf_counter() - rep_start
    _write(out_path, {"reps": reps})


def cmd_setup() -> None:
    result = _run_designs([wl.SETUP_DESIGN])
    if "error" in result["designs"][0]:
        raise SystemExit(result["designs"][0]["error"])


def cmd_trace(seed: int, pairs: int, out_path: str, spans_path: str) -> None:
    """Warm-up rep, then ``pairs`` (untraced, traced) reps on identical inputs."""
    import numpy as np

    from tracing import Tracer

    tracer = Tracer()
    traced_rep = tracer.wrap(_one_rep, "bench.rep", "bench")
    reps, untraced, traced = [], [], []
    reps.append(_one_rep(np.random.default_rng(seed)))
    for rep in range(1, pairs + 1):
        plain = _one_rep(np.random.default_rng([seed, rep]))
        tracer.install()
        try:
            hit = traced_rep(np.random.default_rng([seed, rep]))
        finally:
            tracer.uninstall()
        untraced.append(plain["wall_s"])
        traced.append(hit["wall_s"])
        reps += [plain, hit]
    tracer.dump(spans_path, main_thread=threading.main_thread().ident)
    _write(out_path, {"reps": reps, "untraced_wall_s": untraced, "traced_wall_s": traced})


def cmd_micro(seed: int, out_path: str) -> None:
    _write(out_path, {"micro_us": micro_benchmarks(seed)})


def cmd_cli(spans_path: str, argv: list[str]) -> int:
    """`cpdsss <argv>` with tracing on; the parent adds the process span."""
    from tracing import Tracer, clock

    import cpdsss.cli

    tracer = Tracer()
    t0 = clock()
    tracer.install()
    install_end = clock()
    try:
        code = cpdsss.cli.main(argv)
    finally:
        tracer.uninstall()
    write_start = clock()
    tracer.dump(spans_path, main_thread=threading.main_thread().ident,
                install_ns=[t0, install_end], write_start_ns=write_start)
    return code


def micro_benchmarks(seed: int, batch_s: float = 0.004, repeats: int = 9) -> dict[str, float]:
    """Median microseconds per call at the workload sizes (N=1024, L=40, K in {1, 10}, TDL-A 300 ns)."""
    import numpy as np

    from cpdsss import (
        ChannelConfig, H0Pdf, NoiseSpec, add_cp, allocate_codes, apply_channel, build_message,
        design_detector, despread_full, draw_channel, estimate_noise_power, extract_user,
        generate_zc, h0_cdf, p0_from_pfa, recover_bits, remove_cp, solve_threshold, superpose,
    )
    from cpdsss.experiments import amplitude_for_snr, trial_rng
    from cpdsss.rx import pairwise_stats

    rng = np.random.default_rng(seed)
    basis = generate_zc(wl.N_LEN, 1)
    basis.conj_spectrum
    assign1 = allocate_codes(1, 1, wl.L_TAPS, wl.N_LEN)[0]
    assign10 = allocate_codes(1, 10, wl.L_TAPS, wl.N_LEN)[0]
    bits = [1] + [int(b) for b in rng.choice([-1, 1], size=10)]
    amp = amplitude_for_snr(-12.0, wl.N_LEN, 1.0, 10)
    body = build_message(basis, assign10, bits, amp)
    samples = add_cp(body, wl.CP_LEN)
    profile = ChannelConfig(**wl.TDL_A_300NS).to_profile()
    h = draw_channel(profile, rng)
    received = apply_channel(samples, h)
    noise = NoiseSpec(1.0)
    y = remove_cp(superpose([received], noise, rng), wl.CP_LEN)
    yprime = despread_full(basis, y)
    ds1, ds10 = extract_user(yprime, assign1), extract_user(yprime, assign10)
    pdf = H0Pdf(wl.L_TAPS, 1.0)
    eta = solve_threshold(pdf, 1e-3)
    counter = iter(range(1 << 62))

    cases = {
        "experiments.trial_rng_us": lambda: trial_rng(seed, 0, next(counter)),
        "zc.generate_zc_us": lambda: generate_zc(wl.N_LEN, 1),
        "tx.build_message_us": lambda: build_message(basis, assign10, bits, amp),
        "tx.add_cp_us": lambda: add_cp(body, wl.CP_LEN),
        "tx.remove_cp_us": lambda: remove_cp(samples, wl.CP_LEN),
        "channel.draw_channel_us": lambda: draw_channel(profile, rng),
        "channel.apply_channel_us": lambda: apply_channel(samples, h),
        "channel.superpose_us": lambda: superpose([], noise, rng, n_samples=wl.N_LEN),
        "rx.despread_full_us": lambda: despread_full(basis, y),
        "rx.extract_user_us": lambda: extract_user(yprime, assign10),
        "rx.pairwise_stats_k1_us": lambda: pairwise_stats(ds1.vectors),
        "rx.pairwise_stats_k10_us": lambda: pairwise_stats(ds10.vectors),
        "rx.estimate_noise_power_us": lambda: estimate_noise_power(y),
        "rx.recover_bits_us": lambda: recover_bits(ds10),
        "analysis.p0_from_pfa_us": lambda: p0_from_pfa(1e-3, 55, 1),
        "analysis.h0_cdf_us": lambda: h0_cdf(pdf, eta),
        "analysis.solve_threshold_us": lambda: solve_threshold(pdf, 1e-3),
        "analysis.design_detector_us": lambda: design_detector(1e-3, 10, 20, wl.L_TAPS, 1.0),
    }
    out = {}
    for name, fn in cases.items():
        start = time.perf_counter()
        fn()
        once = time.perf_counter() - start
        n = max(1, int(batch_s / max(once, 1e-7)))
        per_call = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            per_call.append((time.perf_counter() - start) / n)
        out[name] = statistics.median(per_call) * 1e6
    return out


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(argv: list[str]) -> int:
    cmd, args = argv[0], argv[1:]
    if cmd == "measure":
        cmd_measure(int(args[0]), float(args[1]), args[2])
    elif cmd == "setup":
        cmd_setup()
    elif cmd == "trace":
        cmd_trace(int(args[0]), int(args[1]), args[2], args[3])
    elif cmd == "micro":
        cmd_micro(int(args[0]), args[1])
    elif cmd == "cli":
        return cmd_cli(args[0], args[1:])
    else:
        raise SystemExit(f"unknown child command {cmd!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
