"""The benchmark's own tests: seeding, oracles and failure counting.

    python3 -m pytest bench/tests
"""

import importlib.util
import json
import shutil
import subprocess
import sys

import pytest

import cli_cold
import fibration_rows
import subset_sweep
from common import ROOT, Crash, Mismatch
from run import Context, run_pass
from spans import Tracer, self_times


def digest(ops):
    return json.dumps(ops, sort_keys=True)


@pytest.mark.parametrize("wl", [fibration_rows, subset_sweep, cli_cold])
def test_same_seed_same_ops(wl):
    assert digest(wl.build_ops(7)) == digest(wl.build_ops(7))
    assert digest(wl.build_ops(7)) != digest(wl.build_ops(8))


def test_cli_mix_is_fixed_across_seeds():
    assert cli_cold.bases(cli_cold.build_ops(1)) == cli_cold.bases(cli_cold.build_ops(2))
    assert cli_cold.bases(cli_cold.build_ops(1))["ops_per_pass"] == 100


def test_fibration_pins_match_the_integration_tests():
    spec = importlib.util.spec_from_file_location(
        "test_integration", ROOT / "tests" / "test_integration.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pinned = {
        name: (p, det, chains, [[list(s), list(c)] for s, c in witnesses])
        for name, (p, det, chains, witnesses) in module.FIBRATION_CASES.items()
    }
    assert pinned == fibration_rows.MODELS


def test_fibration_driver_reproduces_every_row():
    ops = fibration_rows.build_ops(1)
    ctx = Context()
    state = fibration_rows.setup(ops, ctx)
    _, latencies, failures = run_pass(fibration_rows, ops, state, ctx, "t")
    assert failures == [] and len(latencies) == 8
    rows = {op["model"]: op["expect"]["row"] for op in ops}
    assert rows == {"double_iv_star": 10, "mp1": 18, "mp108": 11, "mp29": 16,
                    "mp30": 17, "mp39": 9, "mp64": 14, "mp9": 15}


def test_perturbed_relation_is_a_failed_op():
    ops = [op for op in fibration_rows.build_ops(1) if op["model"] == "double_iv_star"]
    lhs = ops[0]["relation"]["lhs"]
    symbol = next(iter(lhs))
    lhs[symbol] = int(lhs[symbol]) + 1
    ctx = Context()
    state = fibration_rows.setup(ops, ctx)
    _, _, failures = run_pass(fibration_rows, ops, state, ctx, "t")
    assert [(f["kind"], f["detail"].split(":")[0]) for f in failures] == [
        ("wrong", "double_iv_star relation")]


def test_wrong_oracle_row_is_a_failed_op_and_the_pass_goes_on():
    ops = subset_sweep.build_ops(3)[:40]
    ops[5]["expect"]["row"] += 1
    ctx = Context()
    state = subset_sweep.setup(ops, ctx)
    _, latencies, failures = run_pass(subset_sweep, ops, state, ctx, "t")
    assert len(latencies) == 40
    assert [(f["op"], f["kind"]) for f in failures] == [(ops[5]["id"], "wrong")]


def test_subset_oracle_matches_the_program_geometry():
    from k3lat.finite_geometry import affine_hyperplanes, affine_space, line_complements

    hyps = {frozenset(h.members) for h in affine_hyperplanes(affine_space(2, 4))}
    assert set(subset_sweep.witness_supports(2, 4)) == hyps | {frozenset(range(16))}
    comps = {frozenset(c.members) for c in line_complements(affine_space(3, 2))}
    assert set(subset_sweep.witness_supports(3, 2)) == comps | {frozenset(range(9))}


def test_cli_checks_tell_crashes_from_wrong_answers():
    refusal = {"expect": {"exit": 2}}
    cli_cold.check(refusal, {"exit": 2, "stdout": "", "stderr": "error: bad input\n"})
    with pytest.raises(Crash):
        cli_cold.check(refusal, {"exit": 1, "stdout": "",
                                 "stderr": "Traceback (most recent call last):\nKeyError: 'x'\n"})
    with pytest.raises(Mismatch):
        cli_cold.check(refusal, {"exit": 1, "stdout": "", "stderr": "error: bad input\n"})
    row = {"expect": {"exit": 0, "fields": {"row": 5}}}
    cli_cold.check(row, {"exit": 0, "stdout": '{"row": 5}', "stderr": ""})
    with pytest.raises(Mismatch):
        cli_cold.check(row, {"exit": 0, "stdout": '{"row": 6}', "stderr": ""})
    with pytest.raises(Mismatch):
        cli_cold.check(row, {"exit": 0, "stdout": '[{"row": 5}]', "stderr": ""})


def test_self_time_subtracts_children():
    spans = [["op", 0, 100, -1, "t:0"], ["lattice_core.solve_left", 10, 70, 0, "t:0"],
             ["elliptic.formal_gram", 70, 90, 0, "t:0"]]
    times = self_times(spans)
    assert times["op"] == pytest.approx(20e-9)
    assert times["lattice_core.solve_left"] == pytest.approx(60e-9)
    tracer = Tracer()
    assert tracer.call("x.f", lambda a: a + 1, 1) == 2 and tracer.spans[0][3] == -1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "subset_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
