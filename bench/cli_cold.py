"""cli_cold: one fresh ``python -m k3lat.cli --json ...`` process per op.

Every call pays interpreter start, the ``k3lat`` import and cold ``groups``
caches, so this is the only workload where the group layer and start-up
show.  The op list has a fixed composition (every table case plus a fixed
number of each other command); the seed picks the instances and the order.
Ops run one at a time.  The two missing-field refusals fail at the parent
commit (traceback, exit 1) and are kept so that the defect shows.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading

from common import DATA, MARKER, OUT, ROOT, SRC, Crash, Mismatch, expect_equal, load_data

CHILD = ROOT / "bench" / "child.py"
TIMEOUT_S = 60

CATALOG_ORDERS = {
    "1": 1, **{f"Z/{n}": n for n in range(2, 11)}, "(Z/2)^2": 4, "(Z/2)^3": 8,
    "(Z/2)^4": 16, "Z/4xZ/2": 8, "Z/4x(Z/2)^2": 16, "(Z/3)^2": 9, "Z/6xZ/3": 18,
    "S3": 6, "D8": 8, "D10": 10, "S3xZ/3": 18, "D8xZ/2": 16, "Gamma2c1": 16, "G18/5": 18,
}

# (group, index, number of normal subgroups of that index), by hand
NORMAL_COUNTS = [
    ("C2^4", 2, 15), ("Z/4x(Z/2)^2", 2, 7), ("Gamma2c1", 2, 3), ("D10", 5, 0),
    ("D10", 2, 1), ("D8", 2, 3), ("S3", 2, 1), ("S3", 3, 0), ("(Z/3)^2", 3, 4),
    ("Z/8", 2, 1), ("Z/9", 3, 1), ("(Z/2)^3", 2, 7),
]

LEMMA13 = [
    {"p": 2, "c": 8, "cover": "K3"}, {"p": 2, "c": 16, "cover": "abelian"},
    {"p": 3, "c": 6, "cover": "K3"}, {"p": 3, "c": 9, "cover": "abelian"},
    {"p": 5, "c": 4, "cover": "K3"}, {"p": 7, "c": 3, "cover": "K3"},
]

FIBRATIONS = ["double_iv_star", "mp1", "mp108", "mp29", "mp30", "mp39", "mp64", "mp9"]
RELATIONS = ["double_iv_star", "mp108", "mp30", "mp9"]


def _op(kind, argv, exit_code=0, **expect):
    return {"kind": kind, "argv": ["--json", *argv], "expect": {"exit": exit_code, **expect}}


def _data_path(name: str) -> str:
    return str((DATA / name).relative_to(ROOT))


def _classify_ops() -> list[dict]:
    ops = []
    for row in load_data("table1.json")["rows"]:
        for p in [row["p"]] if row["p"] != "gt7" else [11, 13, 17, 19]:
            for c in range(row["c_min"], row["c_max"] + 1):
                argv = ["classify", "k3", "--p", str(p), "--c", str(c), "--facts", row["condition"]]
                ops.append(_op("classify k3", argv, fields={"table": 1, "row": row["no"], "c": c}))
    for row in load_data("table2.json")["rows"]:
        for c in range(row["c_min"], row["c_max"] + 1):
            argv = ["classify", "enriques", "--p", str(row["p"]), "--c", str(c)]
            for flag in ("w", "cover"):
                if row.get(flag):
                    argv += [f"--{flag}", row[flag]]
            ops.append(_op("classify enriques", argv, fields={"table": 2, "row": row["no"], "c": c}))
    return ops


def _groups_ops(rng) -> list[dict]:
    by_order = {}
    for name, order in CATALOG_ORDERS.items():
        by_order.setdefault(order, []).append(name)
    pairs = [(a, b) for names in by_order.values() for a in names for b in names if a < b]
    ops = [
        _op("groups iso", ["groups", "iso", "--group", a, "--other", b], 1,
            fields={"isomorphic": False})
        for a, b in rng.sample(pairs, 2)
    ]
    ops.append(_op("groups iso", ["groups", "iso", "--group", "Gamma2c1", "--other",
                                  "(Z/4xZ/2):Z/2"], fields={"isomorphic": True}))
    for group, index, count in rng.sample(NORMAL_COUNTS, 3):
        ops.append(_op("groups normal-count",
                       ["groups", "normal-count", "--group", group, "--index", str(index)],
                       fields={"count": count}))
    n, m, k = rng.randint(2, 30), rng.randint(3, 12), rng.randint(2, 6)
    for pres, order in [
        ({"gens": ["a"], "rels": [f"a{n}"]}, n),
        ({"gens": ["a", "b"], "rels": [f"a{m}", "b2", "abab"]}, 2 * m),
        ({"gens": ["a", "b"], "rels": [f"a{k}", f"b{k}", "abAB"]}, k * k),
    ]:
        ops.append(_op("groups build", ["groups", "build", "--presentation", json.dumps(pres)],
                       fields={"order": order}))
    return ops


def _kummer_config_ops(rng) -> list[dict]:
    """``config divisible`` on two seeded sub-configurations of the 16-point
    model; the witnesses are the hyperplanes inside the subset."""
    from subset_sweep import witness_supports

    supports = witness_supports(2, 4)
    ops = []
    for i in range(2):
        members = sorted(rng.sample(range(16), rng.randint(8, 16)))
        pos = {m: j for j, m in enumerate(members)}
        subsets = sorted((sorted(pos[m] for m in s) for s in supports if s <= set(members)),
                         key=lambda s: (len(s), s))
        path = f".bench_out/inputs/config_{i}.json"
        op = _op("config divisible", ["config", "divisible", "--config", path], subsets=subsets)
        op["config"] = {"path": path, "members": members}
        ops.append(op)
    return ops


def build_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)
    table = rng.choice([1, 2])
    rows = len(load_data(f"table{table}.json")["rows"])
    row = rng.randint(1, len(load_data("table1.json")["rows"]))
    ops = _classify_ops() + _groups_ops(rng) + _kummer_config_ops(rng) + [
        _op("table", ["table", str(table)], lengths={"": rows}),
        _op("table", ["table", "1", "--row", str(row)], rows=[row]),
        _op("lemma13", ["lemma13"], equals=LEMMA13),
        _op("geometry kummer", ["geometry", "kummer"], fields={"rank": 16},
            lengths={"divisible_subsets": 31}),
        _op("geometry lemma16", ["geometry", "lemma16"], fields={"pair_13": True}),
        _op("geometry ag23", ["geometry", "ag23"], fields={"unique_six_set": True}),
    ]
    for name in rng.sample(FIBRATIONS, 2):
        ops.append(_op("fibration validate",
                       ["fibration", "validate", "--spec", _data_path(f"{name}.json")],
                       fields={"ok": True}))
    for name in rng.sample(RELATIONS, 2):
        ops.append(_op("fibration relation",
                       ["fibration", "relation", "--spec", _data_path(f"{name}.json"),
                        "--relation", _data_path(f"{name}_relation.json")],
                       fields={"verified": True}))
    # refusals: invalid input exits 2 with a message, never a traceback
    no_fibres = {k: v for k, v in load_data("mp9.json").items() if k != "fibres"}
    no_lhs = {k: v for k, v in load_data("mp108_relation.json").items() if k != "lhs"}
    ops += [
        _op("refusal", ["fibration", "validate", "--spec", json.dumps(no_fibres)], 2),
        _op("refusal", ["fibration", "relation", "--spec", _data_path("mp108.json"),
                        "--relation", json.dumps(no_lhs)], 2),
        _op("refusal", ["classify", "k3", "--p", "4", "--c", "1"], 2),
        _op("refusal", ["groups", "normal-count", "--group", "C7^3", "--index", "7"], 2),
    ]
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(ops, ctx):
    """Write the config files the ops read."""
    cfg = None
    for op in ops:
        if "config" not in op:
            continue
        if cfg is None:
            cfg = ctx.k.finite_geometry.kummer_lattice()[1]
        spec = {
            "ambient": {"gram": [list(r) for r in cfg.ambient.gram]},
            "p": cfg.p,
            "chains": [[list(v) for v in cfg.chains[m]] for m in op["config"]["members"]],
        }
        path = ROOT / op["config"]["path"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec), encoding="utf-8")
    return {"env": child_env()}


def run_child(argv, env) -> dict:
    """Run one child to completion; its output, exit code and peak RSS.

    The child is reaped with ``os.wait4`` so that its own resource usage is
    read, not the running maximum over every child this process has had.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"exit": proc.returncode, "stdout": out.read().decode(),
                "stderr": err.read().decode(), "rss_kb": usage.ru_maxrss,
                "timeout": proc.returncode == -signal.SIGKILL}


def run_op(op, state, ctx):
    traced = ctx.tracer is not None
    program = [sys.executable, str(CHILD), "cli"] if traced else [sys.executable, "-m", "k3lat.cli"]
    result = run_child(program + op["argv"], state["env"])
    ctx.child_peak_kb = max(ctx.child_peak_kb, result["rss_kb"])
    stderr = result["stderr"]
    if traced:
        own, marker, record = stderr.rpartition(MARKER)
        if marker:
            stderr = own
            ctx.add_child(json.loads(record))
    return dict(result, stderr=stderr)


def check(op, result) -> None:
    if result.get("timeout"):
        raise Crash(f"no exit within {TIMEOUT_S} s")
    if "Traceback (most recent call last)" in result["stderr"]:
        last = result["stderr"].strip().splitlines()[-1]
        raise Crash(f"traceback, exit {result['exit']}: {last}")
    expect = op["expect"]
    expect_equal("exit code", result["exit"], expect["exit"])
    if expect["exit"] == 2:
        if result["stdout"] or not result["stderr"].startswith("error:"):
            raise Mismatch("a refusal must print only an error message")
        return
    try:
        check_payload(expect, json.loads(result["stdout"]))
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None
    except (KeyError, TypeError, AttributeError) as exc:
        raise Mismatch(f"payload of the wrong shape: {exc!r}") from None


def check_payload(expect, payload) -> None:
    for key, want in expect.get("fields", {}).items():
        expect_equal(key, payload.get(key), want)
    for key, want in expect.get("lengths", {}).items():
        expect_equal(f"len({key or 'payload'})", len(payload[key] if key else payload), want)
    if "equals" in expect:
        expect_equal("payload", payload, expect["equals"])
    if "rows" in expect:
        expect_equal("rows", [r["no"] for r in payload], expect["rows"])
    if "subsets" in expect:
        expect_equal("subsets", [w["subset"] for w in payload], expect["subsets"])


def bases(ops) -> dict:
    mix = {}
    for op in ops:
        mix[op["kind"]] = mix.get(op["kind"], 0) + 1
    return {"ops_per_pass": len(ops), "command_mix": dict(sorted(mix.items()))}
