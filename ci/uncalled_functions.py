#!/usr/bin/env python3
"""Lists the src/ functions that no run of a --coverage build called.

Runs `gcov --json-format --stdout` over every .gcda file under BUILD_DIR,
sums each function's execution count across translation units (a
function defined in a header is compiled into several), and prints one
line per src/ function whose total is zero, sorted by file and line:

    src/sim/event_queue.cpp:271  brb::sim::EventQueue::peek_time()

Reports only: the exit code is 0 whatever it finds.

    python3 ci/uncalled_functions.py BUILD_DIR [--root .] [--out uncalled.txt]
"""

import argparse
import json
import os
import subprocess
import sys


def gcov_documents(build_dir):
    """Yields gcov's JSON document for every .gcda file under build_dir."""
    for dirpath, _, filenames in os.walk(build_dir):
        for name in sorted(filenames):
            if not name.endswith(".gcda"):
                continue
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout", name],
                cwd=dirpath, capture_output=True, text=True, check=True).stdout
            for line in out.splitlines():
                if line.strip():
                    yield json.loads(line)


def uncalled(build_dir, root):
    root = os.path.realpath(root)
    calls = {}
    for doc in gcov_documents(build_dir):
        cwd = doc.get("current_working_directory", "")
        for f in doc.get("files", []):
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            rel = os.path.relpath(path, root)
            if not rel.startswith("src" + os.sep):
                continue
            for fn in f.get("functions", []):
                key = (rel, fn["start_line"], fn.get("demangled_name", fn["name"]))
                calls[key] = calls.get(key, 0) + fn["execution_count"]
    return sorted(key for key, count in calls.items() if count == 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir")
    parser.add_argument("--root", default=".", help="repository root (default: .)")
    parser.add_argument("--out", help="also write the list to this file")
    args = parser.parse_args()

    lines = ["%s:%d  %s" % key for key in uncalled(args.build_dir, args.root)]
    text = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print("%d src/ function(s) never called" % len(lines), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
