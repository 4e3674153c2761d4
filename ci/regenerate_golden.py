#!/usr/bin/env python3
"""Re-baselines the golden manifest (ci/reference/golden.json).

Each manifest entry is one `golden.<name>` ctest: a brbsim command line
(plus an optional setup command) run in process by the `golden_test`
binary, or, for the entry without args, the Figure 1 report. This
script runs `golden_test` for every entry (or only the named ones) from
BUILD_DIR, reads the `actual: {...}` line it prints, and writes those
values back into the manifest. Entries keep their name, setup and args;
a new entry is added by hand with just those fields, then filled here.

Running it is a re-baseline: a change that means to keep behaviour
leaves every entry unchanged, and one that moves an entry says why in
CHANGES.md.

    python3 ci/regenerate_golden.py build [NAME ...]
"""
import argparse
import json
import pathlib
import subprocess
import sys

MANIFEST = pathlib.Path(__file__).resolve().parent / "reference" / "golden.json"


def dump_entry(entry):
    lines = ["    {"]
    fields = []
    for key, value in entry.items():
        if key == "cases":
            rows = ",\n".join("        " + json.dumps(case) for case in value)
            fields.append(f'      "cases": [\n{rows}\n      ]')
        else:
            fields.append(f"      {json.dumps(key)}: {json.dumps(value)}")
    lines.append(",\n".join(fields))
    lines.append("    }")
    return "\n".join(lines)


def write_manifest(doc):
    body = ",\n".join(dump_entry(entry) for entry in doc["entries"])
    MANIFEST.write_text(
        "{\n"
        f'  "about": {json.dumps(doc["about"])},\n'
        f'  "entries": [\n{body}\n  ]\n'
        "}\n"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", help="build tree holding golden_test")
    parser.add_argument("names", nargs="*", help="entries to refresh (default: all)")
    args = parser.parse_args()

    build = pathlib.Path(args.build_dir).resolve()
    binary = build / "golden_test"
    doc = json.loads(MANIFEST.read_text())
    known = [entry["name"] for entry in doc["entries"]]
    for name in args.names:
        if name not in known:
            sys.exit(f"regenerate_golden: no entry named {name}")

    changed = []
    for i, entry in enumerate(doc["entries"]):
        if args.names and entry["name"] not in args.names:
            continue
        run = subprocess.run([str(binary), str(MANIFEST), entry["name"]], cwd=build,
                             capture_output=True, text=True)
        actual = [line for line in run.stdout.splitlines() if line.startswith("actual: ")]
        if not actual:
            sys.exit(f"regenerate_golden: {entry['name']} failed:\n{run.stderr}")
        fresh = json.loads(actual[-1][len("actual: "):])
        if fresh != entry:
            changed.append(entry["name"])
        doc["entries"][i] = fresh

    write_manifest(doc)
    print(f"regenerated {MANIFEST}: {len(changed)} entries changed"
          + (f" ({', '.join(changed)})" if changed else ""))


if __name__ == "__main__":
    main()
