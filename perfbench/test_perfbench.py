"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Tiny-size smoke runs of every workload, traced and untraced, must run
clean and emit exactly the metrics ``BENCHMARK.json`` declares.  A
deliberately wrong program output must be counted as a failed item, and the
benchmark must refuse a checkout without sources or a foreign
``coeffsharp``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(ROOT / "src"))
import coeffsharp as cs  # noqa: E402

import workloads as wl  # noqa: E402


def _run(root: Path, *args: str):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def _copy_checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_the_declared_metrics(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_wrong_output_is_counted_as_failed(tmp_path):
    root = _copy_checkout(tmp_path)
    exprs = root / "src" / "coeffsharp" / "exprs.py"
    exprs.write_text(exprs.read_text() + (
        "\n\n_correct_parse_number = parse_number\n\n\n"
        "def parse_number(text):\n"
        "    return _correct_parse_number(text) + 1\n"))
    out = _run(root, "--workload", "exact", "--seed", "3", "--seconds", "0.2", "--tiny")
    assert out.returncode == 1
    res = json.loads(out.stdout.strip().splitlines()[-1])
    n_parse = len(wl.exact_inputs(3, tiny=True)["parses"])
    assert not res["correct"]
    assert res["failed"] > 0 and res["failed"] % n_parse == 0
    assert res["failed"] < res["attempted"]
    frac_line = next(line for line in out.stdout.splitlines() if line.startswith("failed_frac"))
    assert float(frac_line.split()[1]) == pytest.approx(res["failed"] / res["attempted"])


def test_refuses_a_foreign_coeffsharp(tmp_path):
    root = _copy_checkout(tmp_path)
    # the worker's own directory comes first on sys.path, so this copy wins
    shutil.copytree(ROOT / "src" / "coeffsharp", root / "perfbench" / "coeffsharp")
    out = _run(root, "--workload", "verify-2param", "--seconds", "0.2", "--tiny")
    assert out.returncode == 2
    assert "resolves to" in out.stderr
    assert not out.stdout.strip()


def test_refuses_a_checkout_without_sources(tmp_path):
    root = _copy_checkout(tmp_path, with_src=False)
    out = _run(root, "--workload", "exact", "--seconds", "1")
    assert out.returncode == 2
    assert not out.stdout.strip()


def test_generators_follow_the_seed():
    assert wl.oracle_inputs(5) == wl.oracle_inputs(5)
    assert wl.oracle_inputs(5) != wl.oracle_inputs(6)
    assert wl.exact_inputs(5) == wl.exact_inputs(5)
    assert wl.exact_inputs(5) != wl.exact_inputs(6)


def test_oracle_mix_hits_every_y_branch_at_the_default_seed():
    ys = wl.oracle_inputs(1)["y"]
    assert {cs.y_branch(cs.YInput(*abc)) for abc in ys} == set(wl.Y_BRANCHES)
