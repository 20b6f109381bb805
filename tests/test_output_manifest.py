"""Output bytes against the committed manifest (``scripts/output_manifest.py``).

The figure data, the benchmark's sweeps ops of two seeds in CSV and JSON,
their rejected-grid copies and the gated inputs are regenerated in-process;
the test names the first output whose exit code, size or sha256 differs.  A
change that moves bytes on purpose regenerates the manifest with
``python3 scripts/output_manifest.py --write``.
"""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_manifest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_manifest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_outputs_match_manifest(tmp_path):
    manifest = load_script()
    expected = json.loads(manifest.MANIFEST.read_text())
    problem = manifest.first_difference(expected, manifest.build(tmp_path))
    assert problem is None, problem


def test_manifest_check_names_platform_and_first_output():
    manifest = load_script()
    entry = {"exit": 0, "size": 1, "sha256": "0" * 64}
    expected = {**manifest.platform_strings(), "outputs": {"a": entry, "b": entry}}
    assert manifest.first_difference(expected, expected) is None
    moved = {**expected, "outputs": {"a": entry, "b": {**entry, "size": 2}}}
    assert manifest.first_difference(expected, moved).startswith("first differing output: b:")
    other = {**expected, "numpy": "0.0"}
    assert manifest.first_difference(other, expected).startswith("platform mismatch:")
