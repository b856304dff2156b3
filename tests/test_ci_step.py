"""The workflow's console-script step, replayed in tier-1.

The step "Console script from outside the checkout" of .github/workflows/tests.yml
runs the installed `fanojet` command from /tmp.  These tests read its `run: |`
block from the workflow by indentation, point its /tmp files at a fresh
directory, and run it under `bash -e` from there, as the runner would, with a
`fanojet` shim (`python -m fanojet.cli`) and this interpreter as `python` first on
PATH and the checkout's sources on PYTHONPATH.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Console script from outside the checkout"
# The grep that pins the whole N = 140 line count; the last digit is group 2.
PIN_140 = re.compile(r"(grep -q '\^result: finite count \d+)(\d)\$' /tmp/l140")
# The sha256 pins of two reports whose integers pass Python's int-to-str digit limit,
# of a line count over 49 equal degrees, whose class is one power of one factor, of one
# over twelve 12s and six 6s, whose class squares both factors, and of two Sym^d
# classes, each checked against the oracle: d = 600, and the prime d = 557, where every
# gcd of the closed form's passes is 1.
SHA_PINS = {"fano-ci": "05a7d7d9", "bounds": "9a8bb945", "lines": "50ab37cc",
            "lines-mixed": "44182244", "chern-600": "a21ad9cc", "chern-557": "acdcfcae"}


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
    for name, command in (("fanojet", "-m fanojet.cli "), ("python", "")):
        shim = bin_dir / name
        shim.write_text('#!/bin/sh\nexec "%s" %s"$@"\n' % (sys.executable, command))
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
    assert (tmp_path / "adj32").is_file()  # its /tmp files were written here


def test_console_script_step_fails_on_an_altered_pin(tmp_path):
    block = step_block(STEP)
    altered, found = PIN_140.subn(lambda m: "%s%d$' /tmp/l140" % (m[1], (int(m[2]) + 1) % 10),
                                  block)
    assert found == 1
    done = replay(altered, tmp_path)
    assert done.returncode == 1, done.stderr
    # It stopped at that grep: the count was written, the next file was not.
    assert (tmp_path / "l140").is_file()
    assert not (tmp_path / "adj32").exists()


@pytest.mark.parametrize("prefix", SHA_PINS.values(), ids=SHA_PINS.keys())
def test_console_script_step_fails_on_an_altered_sha256_pin(tmp_path, prefix):
    block = step_block(STEP)
    assert block.count('"%s' % prefix) == 1
    done = replay(block.replace('"%s' % prefix, '"%s' % prefix[::-1]), tmp_path)
    assert done.returncode == 1, done.stderr
    assert not (tmp_path / "b32").exists()  # it stopped at that pin
