"""Every committed ``BENCH_<pr>.json`` keeps the shape the ROADMAP's north star
asks of a speed claim: the Python version, the core count, the seeds, the
repeat count, both commits, and for each workload and end-to-end metric a
median and an IQR on the parent's side and on the change's.  Every run on
both sides must also have answered correctly, with no failed op."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
HEX40 = re.compile(r"[0-9a-f]{40}")


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_the_north_star_keys(path):
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    rec = json.loads(path.read_text())
    assert re.fullmatch(r"\d+\.\d+\.\d+", rec["python"])
    assert isinstance(rec["nproc"], int) and rec["nproc"] >= 1
    assert isinstance(rec["seconds"], (int, float)) and rec["seconds"] > 0
    seeds = rec["seeds"]
    assert seeds and all(isinstance(s, int) for s in seeds) and len(set(seeds)) == len(seeds)
    assert rec["repeats"] == len(seeds)
    assert HEX40.fullmatch(rec["parent"]["commit"])
    assert HEX40.fullmatch(rec["change"]["base_commit"])
    for side in ("parent", "change"):
        assert HEX40.fullmatch(rec[side]["src_tree"])
    assert rec["workloads"]
    for name, wl in rec["workloads"].items():
        assert [run["seed"] for run in wl["runs"]] == seeds, name
        for run in wl["runs"]:
            for side in ("parent", "change"):
                assert set(END_TO_END) <= run[side].keys(), (name, run["seed"], side)
                # a timing counts only from a run whose every answer held
                result = run[side]
                assert result["correct"] is True, (name, run["seed"], side)
                assert result["failed"] == 0 and result["attempted"] > 0, (name, run["seed"], side)
        assert wl["sets"], name
        for set_name, part in wl["sets"].items():
            assert set(part["seeds"]) <= set(seeds), (name, set_name)
            assert set(part["metrics"]) == set(END_TO_END), (name, set_name)
            for metric, stats in part["metrics"].items():
                assert 0 <= stats["change_better_pairs"] <= len(part["seeds"])
                for side in ("parent", "change"):
                    s = stats[side]
                    assert s["q1"] <= s["median"] <= s["q3"], (name, set_name, metric, side)
                    assert s["iqr"] == pytest.approx(s["q3"] - s["q1"])
