#!/usr/bin/env python3
"""Checks that every brbsim command documented in README.md still validates.

Runs each `brbsim` command from README.md's fenced code blocks with
`--plan --quiet` appended (so nothing is simulated), inside a temporary
directory, and fails on any non-zero exit. `brbsim merge` lines need
shard files and `--record-trace` lines write one, so both are skipped;
`machineN$` and `$` prompts are stripped.

    python3 ci/readme_commands.py [--readme README.md] [--brbsim build/brbsim]
"""

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile


def documented_commands(readme_text):
    """Yields the argument list of every brbsim command in a fenced block."""
    in_block = False
    pending = ""
    for line in readme_text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
            pending = ""
            continue
        if not in_block:
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = re.sub(r"^\s*(machine\d+)?\$\s*", "", pending + line)
        pending = ""
        args = shlex.split(line, comments=True)
        if args and os.path.basename(args[0]) == "brbsim":
            yield args[1:]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--readme", default="README.md")
    parser.add_argument("--brbsim", default="build/brbsim")
    options = parser.parse_args()
    brbsim = os.path.abspath(options.brbsim)
    with open(options.readme, encoding="utf-8") as f:
        commands = list(documented_commands(f.read()))

    failures = 0
    checked = 0
    with tempfile.TemporaryDirectory() as scratch:
        for args in commands:
            if "merge" in args or any(a.startswith("--record-trace") for a in args):
                continue
            extra = [flag for flag in ("--plan", "--quiet") if flag not in args]
            command = [brbsim] + args + extra
            result = subprocess.run(command, cwd=scratch, capture_output=True, text=True)
            checked += 1
            if result.returncode != 0:
                failures += 1
                print(f"FAIL ({result.returncode}): {shlex.join(['brbsim'] + args)}\n"
                      f"  {result.stderr.strip()}")
    print(f"readme_commands: {checked} commands checked, {failures} failed")
    return 1 if failures or checked == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
