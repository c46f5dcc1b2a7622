"""``scripts/output_digests``: stable output that names every section at every size."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digests.py"
LINE = re.compile(r"^(\w+) n=(\d+) (\S+) ([0-9a-f]{64})$")


def run(*sizes: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", *map(str, sizes)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def test_stable_and_names_every_section():
    first = run(16)
    assert first == run(16)  # two processes print the same digests
    lines = first.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    named = {tuple(LINE.match(line).group(1, 3)) for line in lines}
    assert {("synthesis", "fourier"), ("synthesis", "free")} <= named
    assert {("train", mode) for mode in ("phase", "amplitude", "hybrid")} <= named
    assert ("predict", "hybrid") in named
    assert {("evaluate", p) for p in ("network", "zero", "oracle")} <= named
    assert {("config", "desk"), ("config", "paper")} <= named
    assert {section for section, _ in named} == {
        "synthesis", "fields", "train", "predict", "evaluate", "config"
    }
    assert len(set(lines)) == len(lines)


def test_sizes_are_separate_lines():
    two = run(16, 32).splitlines()
    sizes = [int(LINE.match(line).group(2)) for line in two]
    assert sizes.count(16) == sizes.count(32) == len(two) // 2
    assert [line for line in two if " n=16 " in line] == run(16).splitlines()


def test_config_lines_digest_the_manifests_the_cli_writes(tmp_path):
    import hashlib

    from vortexao.cli import main

    lines = dict(tuple(line.rsplit(" ", 1)) for line in run(16).splitlines())
    for name, preset in (("desk", "--desk"), ("paper", "--paper-scale")):
        out = tmp_path / name
        args = ["--grid", "16", "--count", "2", "--train-count", "1", "--seed", "7"]
        assert main(["gen-dataset", "--out", str(out), preset] + args) == 0
        sha = hashlib.sha256((out / "manifest.txt").read_bytes()).hexdigest()
        assert lines[f"config n=16 {name}"] == sha
