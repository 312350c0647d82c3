"""Benchmark of flustab end to end and per layer.

    python3 bench/run.py --workload surface --seed 1 --seconds 30 --trace 0

Runs one workload (``surface``, ``trajectory`` or ``spectral``; ``all`` runs
each in its own process) through ``flustab.cli.main`` in-process, one
process and one BLAS thread, every op writing its output with ``--out`` to a
scratch file under ``.bench_out/``. Every op's output is checked. The first
round warms caches; rounds then repeat for ``--seconds``, with about ten
fresh-interpreter set-up probes between them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced rounds, which follow untraced rounds of the same ops so that the
tracing overhead can be read off. See bench/README.md.
"""
from __future__ import annotations

import os

# One process with one BLAS thread; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE_TIMEOUT_S = 60
PROBES_PER_RUN = 10
# Time of kernel_seconds() at the reference speed: its fast-phase time on a
# 2-vCPU Xeon VM at 2.0 GHz with Python 3.11 and numpy 2.4.
KERNEL_REF_S = 2.8e-3
KERNEL_PARAMS = {"beta": 1.0, "p": 2.0, "c": 3.0, "n_E": 1, "n_I": 3, "tau_I": 1.0, "tau_E": 0.5,
                 "D_PCF": 0.1, "v_a": 0.5, "a": 0.2}


@dataclass
class OpResult:
    latency_s: float
    kernel_s: float  # kernel_seconds() just before the op
    verdict: object
    output_bytes: int


def kernel_seconds() -> float:
    """Time of a fixed piece of the benchmark's own work, which no change to
    flustab can alter: RK4 steps on a small block (numpy call overhead, as
    in flustab's integrators and root finders), pure-Python arithmetic and
    float formatting (as in its parsing and CSV writing)."""
    f = reference.time_field(KERNEL_PARAMS, 0.05)
    y = np.full((1, 7), 0.1)
    t0 = time.perf_counter()
    for _ in range(40):
        y = reference.rk4_step(f, y, 1e-3)
    total = 0.0
    for i in range(2000):
        total += i * 1.000001
    ",".join(format(total / (i + 1), ".17g") for i in range(300))
    return time.perf_counter() - t0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(config_paths: list[str]) -> dict:
    """Start a fresh interpreter that imports flustab and parses every
    config. Returns its wall time, the mean of the kernel times just before
    and just after it (a probe is long enough for the speed to change while
    it runs), and the probe's own report."""
    kernel_before = kernel_seconds()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *config_paths],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    kernel_s = 0.5 * (kernel_before + kernel_seconds())
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(report["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"setup probe imported flustab from {report['module']}, not {SRC}")
    return dict(report, wall_s=wall, kernel_s=kernel_s)


def run_round(cli, ops, files, tracer=None) -> list[OpResult]:
    results = []
    for op, (config_path, out_path) in zip(ops, files):
        argv = [op.command] + (["--config", config_path] if config_path else []) + ["--out", out_path] + op.extra
        if os.path.exists(out_path):
            os.remove(out_path)
        kernel_s = kernel_seconds()
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped error is a failed op, not a failed benchmark
                code = f"uncaught {type(exc).__name__}"
                err.write(f"{type(exc).__name__}: {exc}\n")
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        verdict = checks.check(op, code, out_path, err.getvalue())
        size = os.path.getsize(out_path) if os.path.exists(out_path) else 0
        results.append(OpResult(latency, kernel_s, verdict, size))
    return results


def rounds_for(seconds: float, run) -> list[list[OpResult]]:
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run())
    return rounds


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """A time measured right after kernel_seconds() returned kernel_s, at the
    reference speed. Shared machines change speed by up to 1.6x for seconds
    to minutes at a time; flustab and the kernel slow down together, so the
    ratio of their times holds still while either time alone does not."""
    return KERNEL_REF_S * seconds / kernel_s


def op_times(rounds: list[list[OpResult]]) -> list[float]:
    """Each op's latency at the reference speed, the median over rounds."""
    return [
        statistics.median(at_reference_speed(r.latency_s, r.kernel_s) for r in column)
        for column in zip(*rounds)
    ]


def layer_metrics(tracer, results: list[OpResult]) -> dict:
    """Per-layer metrics of one traced round."""
    snap = tracer.snapshot()

    def get(name: str, key: str):
        return snap.get(name, {}).get(key, 0)

    node_steps = sum(r.verdict.node_steps for r in results)
    rhs_calls = get("dynamics.time_rhs", "calls") + get("dynamics.x_rhs", "calls")
    output_bytes = sum(r.output_bytes for r in results)
    cli_self = sum(v["self_s"] for k, v in snap.items() if k.startswith("cli.cmd_"))
    roots = tracer.returned.get("spectrum.real_roots", 0)
    suite_checks = sum(r.verdict.suite_checks for r in results)
    run_all_s = get("validation.run_all", "total_s")
    metrics = {}
    for name in ("dynamics.time_rhs", "dynamics.x_rhs", "model.derived_rates", "charpoly.coefficient_matrix",
                 "numpy.linalg.eigvals", "charpoly.charpoly", "numpy.linalg.svd"):
        metrics[f"{name}.calls"] = get(name, "calls")
    for name in ("dynamics.time_rhs", "dynamics.x_rhs", "surface.trace_surface", "surface.integrate_time",
                 "surface.integrate_linearized", "surface.asymptotics", "cli.cmd_surface", "cli.cmd_simulate",
                 "charpoly.coefficient_matrix", "spectrum.full_spectrum_numeric", "numpy.linalg.eigvals",
                 "spectrum.real_roots", "spectrum.algebraic_multiplicity", "spectrum.geometric_multiplicity",
                 "cli.parse_config"):
        metrics[f"{name}.self_s"] = get(name, "self_s")
    # The oracle suites run_all calls are public functions with spans of
    # their own; the validation layer's self time is that of all of them.
    metrics["validation.run_all.self_s"] = sum(v["self_s"] for k, v in snap.items() if k.startswith("validation."))
    metrics["surface.node_steps"] = node_steps
    metrics["surface.rhs_calls_per_node_step"] = rhs_calls / node_steps if node_steps else 0.0
    metrics["cli.output_bytes"] = output_bytes
    metrics["cli.output_mb_per_s"] = output_bytes / 1e6 / cli_self if cli_self else 0.0
    metrics["spectrum.charpoly_evals_per_root"] = (
        tracer.calls_from("spectrum.real_roots", "charpoly.charpoly") / roots if roots else 0.0
    )
    metrics["validation.checks_per_s"] = suite_checks / run_all_s if run_all_s else 0.0
    return metrics


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    units = load_units()
    ops = workloads.build(workload, seed)
    workdir = OUT / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    files = []
    for i, op in enumerate(ops):
        config_path = None
        if op.config is not None:
            config_path = str(workdir / f"{i:02d}-{op.command}.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(op.config, fh)
        files.append((config_path, str(workdir / f"{i:02d}-{op.command}.out{op.out_suffix}")))

    config_paths = [c for c, _ in files if c is not None]
    probes = [measure_setup(config_paths)]
    from flustab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported flustab from {cli.__file__}, not {SRC}")

    last_probe = time.perf_counter()

    def untraced():
        # Set-up probes between rounds, about ten a run, spread the set-up
        # samples over the whole run like the rounds themselves.
        nonlocal last_probe
        results = run_round(cli, ops, files)
        if time.perf_counter() - last_probe >= seconds / PROBES_PER_RUN:
            probes.append(measure_setup(config_paths))
            last_probe = time.perf_counter()
        return results

    all_rounds = [run_round(cli, ops, files)]  # warm-up: lazy imports and caches, not timed
    correct = True
    if not trace:
        timed = rounds_for(seconds, untraced)
        all_rounds += timed
        times = op_times(timed)
        values = {
            "setup_s": statistics.median(at_reference_speed(p["wall_s"], p["kernel_s"]) for p in probes),
            "wall_s": sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        plain = rounds_for(seconds / 2, untraced)
        tracers = []

        def traced():
            tracer = tracing.Tracer()
            tracer.install()
            try:
                results = run_round(cli, ops, files, tracer)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            return results

        traced_rounds = rounds_for(seconds / 2, traced)
        all_rounds += plain + traced_rounds
        per_round = [layer_metrics(t, rnd) for t, rnd in zip(tracers, traced_rounds)]
        values = {}
        for name in per_round[0]:
            series = [m[name] for m in per_round]
            if isinstance(series[0], int):
                if len(set(series)) != 1:
                    correct = False
                    print(f"count {name} differs between traced rounds: {series}", file=sys.stderr)
                values[name] = series[0]
            else:
                values[name] = statistics.median(series)
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        values["tracing.overhead_s"] = sum(op_times(traced_rounds)) - sum(op_times(plain))
        for k, tracer in enumerate(tracers):
            tracer.save(str(workdir / f"spans-{k}.npz"))

    attempted = sum(len(rnd) for rnd in all_rounds)
    failures = [r.verdict for rnd in all_rounds for r in rnd if not r.verdict.ok]
    for verdict in failures[:5]:
        print(f"failed op: {verdict.reason}", file=sys.stderr)
    correct = correct and not any(v.wrong for v in failures)
    for _, out_path in files:  # large CSVs; the result and the spans stay
        if os.path.exists(out_path):
            os.remove(out_path)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so each reports its own peak RSS."""
    combined, status = {}, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        combined[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "flustab" / "cli.py").is_file():
        print(f"flustab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
