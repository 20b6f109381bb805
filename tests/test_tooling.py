import re
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    # the benchmark's worker imports only gravoptics.cli and then installs the
    # tracer, which wraps each target by name from sys.modules; a renamed,
    # pruned or no longer imported target would break every traced benchmark
    # run.  A fresh interpreter sees only what the cli import loads, and -B
    # leaves no bytecode cache behind in perfbench/.
    code = f"""
import sys
sys.path.insert(0, {str(TRACER.parent)!r})
import gravoptics.cli
from tracer import TARGETS, Tracer
tracer = Tracer()
tracer.install()
tracer.uninstall()
assert TARGETS
"""
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


ROOT = TRACER.parent.parent
PACKAGE = ROOT / "src" / "gravoptics"
# paper formulas and references that only the tests compare with production code
REFERENCES = (
    "delta_p1_lowest_order",
    "delta_p1_coherent_dominated",
    "bar_marginal",
    "beamsplitter_map",
    "beamsplitter_unitary",
    "from_ladder",
    "oracle_normal_moment",
)


def test_public_names_serve_a_caller():
    # every public top-level def or class is called from the package, the
    # scripts or the benchmark (read, never imported), or is a named reference
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    readers = sources + [p for p in sorted((ROOT / "scripts").glob("*")) if p.is_file()]
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    text = {path: path.read_text().splitlines() for path in readers}
    unused = []
    for path in sources:
        for i, line in enumerate(text[path]):
            match = re.match(r"(?:def|class) ([A-Za-z]\w*)", line)
            if not match or match.group(1) in REFERENCES:
                continue
            word = re.compile(rf"\b{match.group(1)}\b")
            callers = (
                other
                for reader, lines in text.items()
                for j, other in enumerate(lines)
                if (reader, j) != (path, i)
            )
            if not any(word.search(other) for other in callers):
                unused.append(f"{path.stem}.{match.group(1)}")
    assert not unused, unused
