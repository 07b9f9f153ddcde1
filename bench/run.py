"""The k3lat benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --all [--seed <n>] [--seconds <s>] [--trace <0|1>]

Workloads: fibration_rows, subset_sweep, cli_cold (see each module's
docstring for what it stresses and why).  One closed-loop client in one
process runs whole passes over the workload's op list for ``--seconds``.
Outputs are checked after each pass, outside the timed region; a wrong or
failed op is counted, never fatal.

The last line of stdout is the result, ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  ``correct`` is false when an op gave a wrong answer; an op
that raised or printed a traceback counts in ``failed`` only.  The line
before it is the run record: Python version, core count, op-list digest,
sample counts, ``failed_op_ratio`` and the base of every ratio.  The record,
with the spans of a traced run, is also written to ``.bench_out/``.
``--all`` runs every workload in its own process and prints each metric by
name with its unit.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fibration_rows", "subset_sweep", "cli_cold")
SETUP_SAMPLES = 7  # fewest set-ups a run: this process and fresh ones
PROBE_REPEATS = 3  # runs of each cold group probe per traced run
INTERP_STARTS = 5  # bare-interpreter starts per traced run
CLI_PROBE = [["--json", "lemma13"], ["--json", "classify", "k3", "--p", "2", "--c", "13",
                                     "--facts", "nonprimitive"], ["--json", "table", "2"]]
MODEL_BUILDS = ("finite_geometry.kummer_lattice", "finite_geometry.ag23_lattice",
                "finite_geometry.chain_overlattice")
CLASSIFY = ("classifier.k3_classify", "classifier.enriques_classify")


class Context:
    """What an op sees: the k3lat modules (traced or not) and the tracer."""

    def __init__(self, tracer=None):
        from spans import Layers

        self.tracer = tracer
        self.k = Layers(tracer)
        self.children = []  # records of traced CLI children
        self.child_peak_kb = 0  # largest peak RSS of a CLI child

    def add_child(self, record) -> None:
        self.children.append(record)
        self.tracer.extend(record["spans"])


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def warm_bytecode() -> None:
    """Compile the sources once so no measurement pays for it (the
    repository ships no ``__pycache__``)."""
    import compileall

    compileall.compile_dir(str(ROOT / "src" / "k3lat"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)


def run_pass(wl, ops, state, ctx, label):
    """One timed pass; returns (pass seconds, op seconds, failures)."""
    from common import Crash, Mismatch

    tracer = ctx.tracer
    latencies, outcomes = [], []
    t_pass = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            if tracer is None:
                outcome = wl.run_op(op, state, ctx)
            else:
                tracer.op_id = f"{label}:{op['id']}"
                outcome = tracer.call("op", wl.run_op, op, state, ctx)
        except Mismatch as exc:
            outcome = exc
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            outcome = Crash(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
        outcomes.append(outcome)
    pass_s = time.perf_counter() - t_pass
    if tracer is not None:
        tracer.op_id = None

    failures = []
    for op, outcome in zip(ops, outcomes):
        if not isinstance(outcome, Exception):
            try:
                wl.check(op, outcome)
                continue
            except (Mismatch, Crash) as exc:
                outcome = exc
        kind = "wrong" if isinstance(outcome, Mismatch) else "crash"
        failures.append({"op": op["id"], "kind": kind, "detail": str(outcome)[:300]})
    return pass_s, latencies, failures


def setup_workload(name, seed, ctx):
    wl = importlib.import_module(name)
    ops = wl.build_ops(seed)
    if ctx.tracer is not None:
        ctx.tracer.op_id = "setup"
    state = wl.setup(ops, ctx)
    if ctx.tracer is not None:
        ctx.tracer.op_id = None
    return wl, ops, state


def setup_sample(name, seed) -> float:
    """Set-up time of a fresh process: interpreter entry to the first op."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def child_json(argv, env):
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_probes(ctx, env) -> dict:
    """Layer figures that only a fresh process shows, on fixed inputs."""
    import cli_cold

    interp = []
    for _ in range(INTERP_STARTS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        interp.append((time.perf_counter() - t) * 1e3)
    if not ctx.children:  # workloads without CLI ops: a fixed probe set
        state = {"env": env}
        for argv in CLI_PROBE:
            cli_cold.run_op({"argv": argv}, state, ctx)
    groups = {step: [child_json(["groups", step], env) for _ in range(PROBE_REPEATS)]
              for step in ("catalog", "subgroups", "filter")}
    med = lambda step, key="ms": statistics.median(r[key] for r in groups[step])  # noqa: E731
    return {
        "cli.interp_start_ms": statistics.median(interp),
        "cli.import_ms": statistics.median(c["import_ms"] for c in ctx.children),
        "cli.command_ms": statistics.median(c["command_ms"] for c in ctx.children),
        "groups.catalog_build_ms": med("catalog"),
        "groups.subgroups_ms": med("subgroups"),
        "groups.filter_ms": med("filter"),
        "groups.subgroups_found": groups["subgroups"][0]["found"],
    }, {
        "cli_children": len(ctx.children),
        "interp_starts": len(interp),
        "group_probe_repeats": PROBE_REPEATS,
        "filter_constraints": groups["filter"][0]["constraints"],
        "filter_wrong": groups["filter"][0]["wrong"],
    }


def layer_metrics(tracer, traced_passes: int) -> dict:
    from spans import self_times

    in_passes = lambda span: span[4] not in (None, "setup")  # noqa: E731
    per_pass = self_times(tracer.spans, in_passes)
    in_setup = self_times(tracer.spans, lambda span: span[4] == "setup")
    by_layer = {}
    for name, secs in per_pass.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + secs / traced_passes
    count = lambda name: tracer.counters.get(name, 0) / traced_passes  # noqa: E731
    spans_named = lambda names: sum(per_pass.get(n, 0.0) for n in names) / traced_passes  # noqa: E731
    return {
        "lattice_core.self_s": by_layer.get("lattice_core", 0.0),
        "lattice_core.snf_s": spans_named(["lattice_core.smith_normal_form"]),
        "lattice_core.solves": count("lattice_core.solves"),
        "finite_geometry.model_build_s": spans_named(MODEL_BUILDS)
        + sum(in_setup.get(n, 0.0) for n in MODEL_BUILDS),
        "root_config.config_s": spans_named(["root_config.ChainConfiguration"]),
        "root_config.search_s": spans_named(["root_config.find_p_divisible_subsets"]),
        "root_config.witnesses": count("root_config.witnesses"),
        "elliptic.self_s": by_layer.get("elliptic", 0.0),
        "classifier.self_s": by_layer.get("classifier", 0.0),
        "classifier.calls": sum(1 for s in tracer.spans if s[0] in CLASSIFY and in_passes(s))
        / traced_passes,
    }, {name: round(secs, 6) for name, secs in sorted(by_layer.items())}


def measure(name, seed, seconds, trace):
    from spans import Tracer

    warm_bytecode()
    tracer = Tracer() if trace else None
    plain = Context()
    ctx = Context(tracer) if trace else plain
    wl, ops, state = setup_workload(name, seed, ctx)
    own_setup = time.perf_counter() - T_START

    # Whole rounds while the next one, judged by the last, still ends within
    # the budget.  A traced round is a plain and a traced pass, in
    # alternating order.  One fresh-process set-up follows each plain round,
    # so the set-up median reflects the whole run rather than one moment.
    passes = {"plain": [], "traced": []}
    latencies, failures, setups = [], [], [own_setup]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        t_round = time.perf_counter()
        kinds = [("plain", plain), ("traced", ctx)] if trace else [("plain", plain)]
        for kind, c in kinds if rounds % 2 == 0 else kinds[::-1]:
            label = f"{kind[0]}{len(passes[kind])}"
            pass_s, lat, fail = run_pass(wl, ops, state, c, label)
            passes[kind].append(pass_s)
            failures += fail
            if kind == "plain":
                latencies += lat
        rounds += 1
        if not trace:
            setups.append(setup_sample(name, seed))
        now = time.perf_counter()
        if now + (now - t_round) > deadline:
            break
    # read before the record is built: the process doing the work, which is
    # the CLI children when there are any
    peak_kb = plain.child_peak_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(ops) * sum(len(v) for v in passes.values())
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops_digest": hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": {k: len(v) for k, v in passes.items()},
        "op_samples": len(latencies),
        "failed_op_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "bases": wl.bases(ops),
    }
    if trace:
        import cli_cold

        metrics, bases = layer_metrics(tracer, len(passes["traced"]))
        probes, probe_bases = cold_probes(ctx, cli_cold.child_env())
        metrics.update(probes)
        plain_s = statistics.median(passes["plain"])
        metrics["trace.overhead_ratio"] = (statistics.median(passes["traced"]) - plain_s) / plain_s
        record["bases"].update(probe_bases, layer_self_s_per_pass=bases,
                               traced_pass_s=passes["traced"], plain_pass_s=passes["plain"])
    else:
        setups += [setup_sample(name, seed) for _ in range(SETUP_SAMPLES - len(setups))]
        metrics = {
            "setup_s": statistics.median(setups),
            # The mean, not the median, of the passes: the host's speed
            # drifts over tens of seconds, and the mean weighs each spell
            # by its length instead of following whichever one had most passes.
            "pass_s": statistics.fmean(passes["plain"]),
            "op_p50_ms": percentile(latencies, 50) * 1e3,
            "op_p90_ms": percentile(latencies, 90) * 1e3,
            "op_p99_ms": percentile(latencies, 99) * 1e3,
            "peak_rss_mb": peak_kb / 1024,
        }
        record["bases"].update(setup_samples_s=setups, pass_s_samples=passes["plain"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not any(f["kind"] == "wrong" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    from common import OUT

    OUT.mkdir(exist_ok=True)
    dump = dict(record, result=result, op_latencies_s=latencies,
                spans=tracer.spans if trace else [])
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(dump))
    return record, result


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            worst = 1
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}  (seed {args.seed}, ops digest {record['ops_digest'][:12]}, "
              f"Python {record['python']}, {record['nproc']} cores)")
        for key, m in result["metrics"].items():
            print(f"  {key:32s} {m['value']:14.6f} {m['unit']}")
        print(f"  {'failed_op_ratio':32s} {record['failed_op_ratio']:14.6f} "
              f"({result['failed']}/{result['attempted']} ops)   correct: {result['correct']}")
        for f in record["failures"][:5]:
            print(f"    op {f['op']} {f['kind']}: {f['detail']}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "k3lat" / "__init__.py").is_file():
        print(f"error: no k3lat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    if args.setup_only:
        warm_bytecode()
        setup_workload(args.workload, args.seed, Context())
        print(time.perf_counter() - T_START)
        return 0
    record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
