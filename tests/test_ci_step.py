"""The workflow's console-script step, replayed in tier-1.

The step "Console script from outside the checkout" of .github/workflows/tests.yml
checks only what needs the installed `fanojet` command run from /tmp; every CLI
output pin is in tests/test_cli_golden.py.  These tests read its `run: |` block by
indentation, point its /tmp files at a fresh directory, and run it under `bash -e`
from there, as the runner would, with a `fanojet` shim (`python -m fanojet.cli`)
first on PATH and the checkout's sources on PYTHONPATH.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Console script from outside the checkout"
EXIT_2 = 'test "$code" -eq 2'


def step_block(name: str) -> str:
    """The `run: |` block of the workflow step called `name`, dedented."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "- name: " + name)
    key = lines[start + 1]
    assert key.strip() == "run: |", key
    indent = len(key) - len(key.lstrip())
    block = []
    for line in lines[start + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def replay(block: str, tmp_path: Path) -> subprocess.CompletedProcess:
    """Run `block` under `bash -e` from `tmp_path`, its /tmp files moved there."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "fanojet"
    shim.write_text('#!/bin/sh\nexec "%s" -m fanojet.cli "$@"\n' % sys.executable)
    shim.chmod(0o755)
    script = tmp_path / "step.sh"
    script.write_text(block.replace("/tmp", str(tmp_path)))
    env = dict(os.environ, PATH=str(bin_dir) + os.pathsep + os.environ.get("PATH", ""),
               PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(["bash", "-e", str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)


def test_console_script_step_passes(tmp_path):
    done = replay(step_block(STEP), tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "pipe_err").is_file()  # its /tmp files were written here


def test_console_script_step_stops_at_a_failed_check(tmp_path):
    block = step_block(STEP)
    assert block.count(EXIT_2) == 1
    done = replay(block.replace(EXIT_2, 'test "$code" -eq 0'), tmp_path)
    assert done.returncode == 1, done.stderr
    # It stopped in the exit-2 loop: the broken-pipe check after it never ran.
    assert "verified 12 catalog entries: all consistent" in done.stdout
    assert not (tmp_path / "pipe_err").exists()
