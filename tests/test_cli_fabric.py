"""CLI tests for the ``repro sweep`` and ``repro store`` subcommands."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main, store_main, sweep_main
from repro.experiments.config import load_spec
from repro.experiments.runner import run_experiment
from repro.store import TrialStore


@pytest.fixture
def small_store(tmp_path):
    store = TrialStore(tmp_path / "s")
    store.put("aa" * 32, {"v": 1})
    store.put("bb" * 32, {"v": 2})
    store.close()
    # A duplicate segment line, as a crashed-then-reissued worker's
    # double commit would leave it (the store dedups live puts).
    seg = tmp_path / "s" / "segments" / "aa.jsonl"
    line = seg.read_text().splitlines()[0]
    with seg.open("a") as fh:
        fh.write(line + "\n")
    return tmp_path / "s"


class TestStoreCLI:
    def test_stats(self, small_store, capsys):
        assert main(["store", "stats", str(small_store)]) == 0
        out = capsys.readouterr().out
        assert "2 unique records" in out
        assert "1 duplicate" in out

    def test_verify_clean_after_compact(self, small_store, capsys):
        assert store_main(["compact", str(small_store)]) == 0
        assert store_main(["verify", str(small_store)]) == 0
        out = capsys.readouterr().out
        assert "duplicates   0" in out

    def test_verify_flags_corruption(self, small_store, capsys):
        # A terminated undecodable interior line is real corruption.
        seg = small_store / "segments" / "aa.jsonl"
        seg.write_text('not json\n' + seg.read_text())
        assert store_main(["verify", str(small_store)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_compact_with_budget_evicts(self, small_store, capsys):
        assert store_main(["compact", str(small_store), "--max-bytes", "80"]) == 0
        assert "evicted" in capsys.readouterr().out

    def test_not_a_store_is_refused(self, tmp_path, capsys):
        assert store_main(["stats", str(tmp_path / "nope")]) == 2
        assert "MANIFEST.json" in capsys.readouterr().err


class TestSweepCLI:
    def test_usage_errors(self, tmp_path, capsys):
        # No experiment named (and not a worker) is a usage error...
        assert sweep_main(["--store", str(tmp_path / "s")]) == 2
        # ...as are both a figure and a config...
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        assert sweep_main(
            ["fig2", "--config", str(cfg), "--store", str(tmp_path / "s")]
        ) == 2
        # ...and a coordinator without a store.
        assert sweep_main(["fig2"]) == 2
        assert main(["sweep", "fig99", "--store", str(tmp_path / "s")]) == 2

    def test_inline_sweep_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "fig2",
                "--trials", "2",
                "--seed", "3",
                "--chunk-size", "2",
                "--workers", "0",
                "--store", str(tmp_path / "s"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fabric:" in out and "completed" in out
        doc = json.loads((tmp_path / "out" / "fig2.json").read_text())
        assert doc["trials_per_cell"] == 2
        assert (tmp_path / "out" / "fig2.csv").exists()
        assert (tmp_path / "out" / "fig2.md").exists()

    def test_rerun_resumes_from_store(self, tmp_path, capsys):
        argv = [
            "sweep",
            "fig2",
            "--trials", "2",
            "--chunk-size", "2",
            "--workers", "0",
            "--store", str(tmp_path / "s"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 completed over 0 leases" in out


#: A two-point, two-series sweep small enough to serve in a test.
TINY_SWEEP = {
    "name": "tiny-served",
    "title": "served sweep",
    "x": {"field": "workload.m", "values": [2, 3]},
    "series": [
        {"label": "PURE", "set": {"metric": "PURE"}},
        {"label": "ADAPT-L", "set": {"metric": "ADAPT-L"}},
    ],
    "base": {
        "workload.n_tasks_range": [12, 16],
        "workload.depth_range": [4, 6],
    },
}


class TestSweepServe:
    def test_served_sweep_drained_by_a_connected_worker(self, tmp_path):
        """``repro sweep --serve --workers 0`` waits for remote workers; a
        ``repro sweep --connect`` worker drains it, ``/metrics`` shows
        the queue meanwhile, and the result equals ``run_experiment``'s
        at the same chunk size."""
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(TINY_SWEEP))
        out = tmp_path / "out"
        src = str(Path(repro.__file__).resolve().parents[1])
        coordinator = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "sweep",
                "--config", str(config),
                "--trials", "4", "--seed", "5", "--chunk-size", "2",
                "--store", str(tmp_path / "s"),
                "--serve", "--port", "0", "--workers", "0",
                "--poll", "0.05", "--out", str(out),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            banner = coordinator.stdout.readline()
            match = re.search(r"http://[0-9.]+:\d+", banner)
            assert match, banner + coordinator.stderr.read()
            url = match.group(0)
            with urllib.request.urlopen(f"{url}/metrics", timeout=30) as r:
                text = r.read().decode()
            assert 'repro_fabric_units{state="pending"}' in text
            assert sweep_main(["--connect", url, "--poll", "0.05"]) == 0
            stdout, stderr = coordinator.communicate(timeout=120)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.communicate()
        assert coordinator.returncode == 0, stderr
        assert "fabric:" in stdout
        served = json.loads((out / "tiny-served.json").read_text())
        single = run_experiment(
            load_spec(config), trials=4, seed=5, jobs=1, chunk_size=2
        ).to_dict()
        served.pop("elapsed_seconds")
        single.pop("elapsed_seconds")
        assert json.dumps(served, sort_keys=True) == json.dumps(
            single, sort_keys=True
        )
