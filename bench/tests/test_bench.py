"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import ast
import collections
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

WORKLOADS = sorted(gen.ROUNDS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_job_files(workload):
    first = list(gen.files(gen.generate(workload, 5)))
    again = list(gen.files(gen.generate(workload, 5)))
    assert first == again
    assert first != list(gen.files(gen.generate(workload, 6)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_share_one_size_profile(workload):
    profiles = {tuple(map(gen.size_profile, gen.generate(workload, seed)))
                for seed in (1, 2, 3, 1234)}
    assert len(profiles) == 1


def _imports(path: str) -> set[str]:
    with open(path) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add((node.module or "").split(".")[0] if node.level == 0 else ".")
    return out


@pytest.mark.parametrize("module", ["refkernel.py", "gen.py"])
def test_kernel_and_generator_do_not_import_ratval(module):
    assert not _imports(os.path.join(BENCH, module)) & {"ratval", "."}
    probe = (f"import sys; sys.path[:0] = [{BENCH!r}, {os.path.join(ROOT, 'src')!r}]; "
             f"import {module[:-3]}; print(sorted(m for m in sys.modules if 'ratval' in m))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_kernel_checksums():
    import refkernel
    assert refkernel.kernel() == refkernel.EXPECTED
    assert refkernel.cli_kernel() == refkernel.EXPECTED_CLI


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ratval.cli
    return ratval.cli


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_reports_are_identical(workload, cli):
    jobs_dir = os.path.join(run.WORK, "tests", workload)
    entries = gen.generate(workload, 3, rounds=1)
    gen.write(entries, jobs_dir)
    runner = run.Runner(cli, jobs_dir)
    paths = [os.path.join(jobs_dir, f) for e in entries for f in gen.file_names(e).values()]
    plain = [runner.call(["run", p])[:3] for p in paths]
    counts = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = [runner.call(["run", p])[:3] for p in paths]
        finally:
            tracer.uninstall()
        assert traced == plain
        counts.append(collections.Counter(tracer.names[i] for i in tracer.name))
    assert counts[0] == counts[1] and counts[0]["cli.main"] == len(paths)
    assert [failure for _, _, failure in plain] == [None] * len(paths)
    for e in entries:
        report = plain[paths.index(os.path.join(jobs_dir, e["name"] + ".json"))][1]
        assert run.check_answer(json.loads(report), e["expect"])
    # uninstall puts every original back
    fields = sys.modules["ratval.fields"]
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(vars(fields.FieldElement)["__mul__"], "__wrapped__")
    assert not hasattr(fields.is_irreducible, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_metrics_of_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "certify",
                           "--seed", "2", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert "known-defect probe degree-bound-not-coprime:" in proc.stdout


def test_loop_cut_short_of_min_samples_is_reported(cli, monkeypatch):
    jobs_dir = os.path.join(run.WORK, "tests", "cut")
    gen.write(gen.generate("certify", 3, rounds=1), jobs_dir)
    with open(os.path.join(jobs_dir, "manifest.json")) as fh:
        entries = json.load(fh)["entries"]
    runner = run.Runner(cli, jobs_dir)
    monkeypatch.setattr(run, "LOOP_LIMIT_S", 0)
    assert run.run_loop(runner, [entries], 0, 1) == (0, False)
    assert runner.attempted == 1 + run.RECHECKS and not runner.failures
