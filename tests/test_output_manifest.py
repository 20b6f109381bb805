"""The byte-identity tool, ``scripts/output_manifest.py``, and the manifest it pins.

The figure data, the benchmark's sweeps warm-ups and ops of two seeds in CSV
and JSON, their rejected-grid copies, the gated inputs and the Fock oracle's
draws of two seeds are regenerated in-process; the test names the first
output whose exit code or digest (exit code, stdout and stderr, kept apart)
differs.  The same run, profiled on every thread it starts, is the census
of ``test_tooling.census``: each def of the package that no pinned output
runs is named, unless a tracer target or a ``REFERENCES`` entry keeps it.
A change that moves bytes on purpose regenerates the manifest with
``python3 scripts/output_manifest.py --write``.  The tool's ``--compare`` is
checked on canned worker rows, and ``scripts/reproduce_figure_data.sh``
against the generator's figure outputs.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from gravoptics import cli
from test_tooling import census, load_file, profiled

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_manifest.py"
# the file reproduce_figure_data.sh writes for each figure output
FIGURE_FILES = {
    "figure probs": "fraction_sweep_probs.csv",
    "figure g2": "g2_grid.csv",
    "figure tomo": "tomo_roundtrip.json",
    "figure physical": "weber_bar.json",
    "figure oracle-check": "oracle_check.csv",
}


def load_script():
    return load_file(SCRIPT)


def test_outputs_match_manifest(tmp_path):
    # one profiled run of the generator pins the bytes and takes the census;
    # the run builds the parser, as a fresh process does, whatever ran before
    manifest = load_script()
    expected = json.loads(manifest.MANIFEST.read_text())
    cli.build_parser.cache_clear()
    actual, ran = profiled(manifest.build, tmp_path)
    problem = manifest.first_difference(expected, actual)
    unserved = census(ran)
    assert (problem, unserved) == (None, []), "\n".join(filter(None, [problem, *unserved]))


def test_manifest_check_names_platform_and_first_output():
    manifest = load_script()
    entry = {"exit": 0, "sha256": "0" * 64}
    expected = {**manifest.platform_strings(), "outputs": {"a": entry, "b": entry}}
    assert manifest.first_difference(expected, expected) is None
    moved = {**expected, "outputs": {"a": entry, "b": {**entry, "sha256": "1" * 64}}}
    assert manifest.first_difference(expected, moved).startswith("first differing output: b:")
    other = {**expected, "numpy": "0.0"}
    assert manifest.first_difference(other, expected).startswith("platform mismatch:")


def test_reproduce_figure_data_prints_the_figure_outputs(tmp_path):
    manifest = load_script()
    script = manifest.ROOT / "scripts" / "reproduce_figure_data.sh"
    env = {**os.environ, "PYTHON": sys.executable, "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run(["bash", str(script), str(tmp_path / "data")], env=env, check=True)
    # the figure outputs come first, so the generator runs nothing else
    figures = itertools.islice(manifest.outputs(manifest.ROOT, tmp_path, (), ()), 5)
    for label, _, code, out, err in figures:
        assert (code, err) == (0, b""), label
        assert (tmp_path / "data" / FIGURE_FILES.pop(label)).read_bytes() == out, label
    assert not FIGURE_FILES


def test_compare_lists_every_difference_by_subcommand(monkeypatch, capsys):
    # the two checkouts' worker rows are canned, so no checkout runs
    compare = load_script()
    parent = [
        ("seed 901 probs-0 csv", "probs", "a", 0),
        ("seed 901 g2-1 csv", "g2", "b", 0),
        ("seed 901 probs-0 rejected", "probs", "c", 1),
        ("seed 901 tomo-2 json", "tomo", "d", 0),
        ("seed 902 probs-3 json", "probs", "e", 0),
        ("seed 901 oracle-0-0 table", "oracle", "f", 0),
        ("seed 901 oracle-0-0 moments", "oracle", "g", 0),
    ]
    change = list(parent)
    for i in (0, 1, 2, 4, 6):
        label, command, _, code = parent[i]
        change[i] = (label, command, "moved", code)
    assert compare.differing(parent, parent) == {}
    assert compare.differing(parent, change) == {
        "probs": ["seed 901 probs-0 csv", "seed 901 probs-0 rejected", "seed 902 probs-3 json"],
        "g2": ["seed 901 g2-1 csv"],
        "oracle": ["seed 901 oracle-0-0 moments"],
    }
    # the same bytes on stderr instead of stdout, or with another exit code, differ
    label = "seed 901 probs-0 csv"
    on_stdout = [(label, "probs", compare.digest(0, b"n,p_n\n", b""), 0)]
    for moved in ((0, b"", b"n,p_n\n"), (0, b"n,", b"p_n\n"), (1, b"n,p_n\n", b"")):
        swapped = [(label, "probs", compare.digest(*moved), moved[0])]
        assert compare.differing(on_stdout, swapped) == {"probs": [label]}

    def worker(cmd, **_):
        side = parent if cmd[-2] == "parent" else change
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(side))

    monkeypatch.setattr(compare.subprocess, "run", worker)
    assert compare.compare(Path("parent"), Path("change")) is False
    printed = capsys.readouterr().out
    assert "probs: 3 differ\n  seed 901 probs-0 csv\n" in printed and "g2: 1 differ" in printed
    assert "oracle: 1 differ\n  seed 901 oracle-0-0 moments\n" in printed
    assert "5 of 7 outputs differ" in printed
    change[:] = parent
    assert compare.compare(Path("parent"), Path("change")) is True
    printed = capsys.readouterr().out
    assert "sweeps ops: identical (5 outputs" in printed
    assert "oracle draws: identical (1 P_n tables and 1 moment triples" in printed
