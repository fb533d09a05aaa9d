"""Regenerate reference.json: the checked outputs of one pass of every
workload on the reference seed, taken from the program as it stands.

Run from the repository root, only when a change of outputs is intended:

    python3 benchmark/make_reference.py
"""

import json
import sys

import run

run._import_program()

import workloads as wl  # noqa: E402


def main() -> int:
    reference = {}
    for name, workload in wl.WORKLOADS.items():
        out = run.OUT / "make_reference" / name
        paths = wl.write_configs(workload, wl.REFERENCE_SEED, out / "configs")
        results = wl.run_pass(workload, paths, out, detail=True)
        problems = [f"{name}/{r.label}: {p}" for r in results for p in r.problems]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference[name] = {r.label: r.values for r in results}
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
