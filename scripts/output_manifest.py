"""Pin the bytes that gravoptics prints, in a committed manifest.

    python3 scripts/output_manifest.py          # name the first output that differs
    python3 scripts/output_manifest.py --write  # regenerate tests/output_manifest.json

The outputs are, in this order: the five commands of
``scripts/reproduce_figure_data.sh``; every op of
``perfbench/workloads.sweeps_round`` for SEEDS, once as CSV and once as JSON;
a rejected-grid copy of each swept ``probs`` and ``g2`` op (``rejected`` of
``scripts/compare_outputs.py``); and the GATED inputs, whose error order no
rejected copy shows.  Each output is recorded as its exit code plus the
sha256 and size of what it printed (stdout, then stderr).  A change that moves
bytes on purpose regenerates the manifest with ``--write``, so the moved
outputs show up in its diff.

The bytes depend on the libm and numpy builds, so the manifest also records
the python, numpy and platform strings; a check on another platform fails
and says so.  The kernel release is left out of the platform string: it does
not round anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "output_manifest.json"
SEEDS = (901, 902)
FORMATS = ("csv", "json")
# (label, subcommand, config): inputs whose error order a rejected copy cannot show
GATED = (
    # the vacuum at the first point exits 2, before r = 400 overflows cosh(2r) (exit 1)
    (
        "g2 vacuum-before-overflow",
        "g2",
        {
            "gw": {"alpha_mag": 0.0},
            "sweep": [
                {"parameter": "r", "min": 0.0, "max": 400.0, "steps": 3},
                {"parameter": "nbar", "min": 0.0, "max": 1.0, "steps": 2},
            ],
        },
    ),
)


def _load(name: str, path: Path):
    """Import a file as the module ``name`` once, leaving no bytecode cache beside it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def platform_strings() -> dict[str, str]:
    system, machine = platform.system(), platform.machine()
    libc = "-".join(part for part in platform.libc_ver() if part)
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "platform": "-".join(part for part in (system, machine, libc) if part),
    }


def outputs(work: Path):
    """(label, exit code, printed text) of every pinned output, in order."""
    from gravoptics import cli

    workloads = _load("manifest_workloads", ROOT / "perfbench" / "workloads.py")
    rejected = _load("manifest_compare_outputs", ROOT / "scripts" / "compare_outputs.py").rejected

    def run(argv: list) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(arg) for arg in argv])
        return code, out.getvalue() + err.getvalue()

    def config_file(name: str, config: dict) -> Path:
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        return path

    for name, args in workloads.CLI_COMMANDS:
        argv = [ROOT / arg if arg.startswith("scripts/") else arg for arg in args]
        yield (f"figure {name}", *run([name, *argv]))
    for seed in SEEDS:
        # each round writes its configs under the same names, so it runs before the next is made
        for op in workloads.sweeps_round(seed, work):
            for fmt in FORMATS:
                yield (f"seed {seed} {op.key} {fmt}", *run([*op.argv, "--format", fmt]))
            config = rejected(op.config) if op.kind in ("probs", "g2") else None
            if config is not None:
                path = config_file(f"{op.key}-rejected", config)
                yield (f"seed {seed} {op.key} rejected", *run([op.kind, "--config", path]))
    for label, command, config in GATED:
        yield (f"gated {label}", *run([command, "--config", config_file("gated", config)]))


def build(work: Path) -> dict:
    entries = {}
    for label, code, text in outputs(work):
        data = text.encode()
        digest = hashlib.sha256(data).hexdigest()
        entries[label] = {"exit": code, "size": len(data), "sha256": digest}
    return {**platform_strings(), "outputs": entries}


def first_difference(expected: dict, actual: dict) -> str | None:
    """Why the actual outputs do not match the manifest, or None when they do."""
    for key in ("python", "numpy", "platform"):
        if expected.get(key) != actual[key]:
            return (
                f"platform mismatch: the manifest was made with {key} {expected.get(key)!r}, "
                f"this run has {actual[key]!r}; output bytes depend on the libm and numpy "
                "builds, so regenerate it there (scripts/output_manifest.py --write)"
            )
    want, got = expected["outputs"], actual["outputs"]
    for label in [*want, *(label for label in got if label not in want)]:
        if want.get(label) != got.get(label):
            return (
                f"first differing output: {label}: manifest {want.get(label)}, now {got.get(label)}"
            )
    return None


def dump(manifest: dict) -> str:
    """The manifest as JSON with one line per output, so that a moved output is one diff line."""
    strings = [(key, value) for key, value in manifest.items() if key != "outputs"]
    head = [f" {json.dumps(key)}: {json.dumps(value)}," for key, value in strings]
    entries = manifest["outputs"].items()
    lines = [f"  {json.dumps(label)}: {json.dumps(entry)}" for label, entry in entries]
    return "{\n" + "\n".join(head) + '\n "outputs": {\n' + ",\n".join(lines) + "\n }\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {MANIFEST.name}")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        actual = build(Path(work))
    if args.write:
        MANIFEST.write_text(dump(actual))
        print(f"wrote {len(actual['outputs'])} outputs to {MANIFEST.relative_to(ROOT)}")
        return 0
    problem = first_difference(json.loads(MANIFEST.read_text()), actual)
    print(problem or f"identical: {len(actual['outputs'])} outputs")
    return 1 if problem else 0


if __name__ == "__main__":
    sys.exit(main())
