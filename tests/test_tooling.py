import ast
import cProfile
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import gravoptics

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
TESTS = sorted((ROOT / "tests").glob("test_*.py"))
# module.name of each function that no pinned output runs but that stays:
# the test that uses it as an independent route, or the open item that decides it
REFERENCES = {
    "counting.delta_p1_lowest_order": "paper formula, held against delta_pn by "
    "test_delta_p1_expansion_converges_at_second_order and test_criterion_08_fig2_endpoints",
    "counting.delta_p1_coherent_dominated": "paper formula, held against delta_pn by "
    "test_delta_p1_coherent_dominated_regime",
    "dynamics.bar_marginal": "the covariance pipeline that "
    "test_evolved_bar_moments_matches_state_pipeline holds evolved_bar_moments against",
    "dynamics.beamsplitter_map": "the verbatim exchange map, the reference of "
    "test_phase_adjusted_is_conjugated_beamsplitter",
    "dynamics.detuned_coefficients": "ROADMAP item 8 decides: option (a) gives it a "
    "production caller",
    "fock.beamsplitter_unitary": "the dense exchange unitary of "
    "test_bar_marginal_matches_partial_trace_of_beamsplitter",
    "fock.oracle_normal_moment": "the Fock moments of test_moments_match_oracle_to_1e8 and "
    "test_quadrature_number_correlation_vs_oracle",
    "states.to_ladder": "the ladder moments that "
    "test_evolved_bar_moments_matches_state_pipeline holds evolved_bar_moments against",
}


def code_lines(path: Path) -> list[str]:
    """The lines of a file without its comments and docstrings.

    A Python file keeps every other token, string literals included (the
    tracer names its targets in strings); another file loses each # comment.
    """
    text = path.read_text()
    if path.suffix != ".py":
        return [re.sub(r"(^|\s)#.*", "", line) for line in text.splitlines()]
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.add((first.lineno, first.col_offset))
    lines = [[] for _ in text.splitlines()]
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        docstring = token.type == tokenize.STRING and token.start in docstrings
        if token.type != tokenize.COMMENT and not docstring and token.string.strip():
            lines[token.start[0] - 1].append(token.string)
    return [" ".join(tokens) for tokens in lines]


def _targets() -> set[str]:
    """module.name of each function the benchmark's tracer wraps (the file is read, not run)."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS":
            return {".".join(ast.literal_eval(pair)) for pair in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _names(path: Path):
    """(module.name, first line or None, class, code) of each class and def of a file.

    A class's code is its own name, so a class in REFERENCES keeps its methods.
    """
    lines = code_lines(path)

    def walk(node, prefix: str, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield f"{prefix}.{child.name}", None, None, child.name
                yield from walk(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                code = " ".join(lines[child.lineno - 1 : child.end_lineno])
                yield f"{prefix}.{child.name}", first, cls, code
                yield from walk(child, f"{prefix}.{child.name}", None)

    yield from walk(ast.parse(path.read_text()), path.stem, None)


def census(profile: cProfile.Profile) -> list[str]:
    """Each def of the package that serves nothing, and each REFERENCES entry that is wrong.

    A def serves when ``profile`` (a run of every pinned output, Python calls
    only) called it, when it is a tracer target or a REFERENCES entry, or
    when it is only a helper of those: the code of one names it, or names
    the class of a method (a dunder, a dataclass hook), and so on
    transitively.  An entry is wrong when it names no class or def, when a
    pinned output runs it, or when its reason names a test that does not
    exist.
    """
    package = Path(gravoptics.__file__).parent
    ran = {(entry.code.co_filename, entry.code.co_firstlineno) for entry in profile.getstats()}
    code, words, unrun, run = {}, {}, set(), set()
    for path in sorted(package.glob("*.py")):
        for name, first, cls, text in _names(path):
            code[name] = text
            words[name] = {name.rsplit(".", 1)[1], cls} - {None}
            if first is not None:
                (run if (str(path), first) in ran else unrun).add(name)
    tests = set(re.findall(r"def (test_\w+)", "".join(p.read_text() for p in TESTS)))
    problems = []
    for name, reason in REFERENCES.items():
        if name not in code or name in run:
            why = "a pinned output runs it" if name in run else "no class or def of that name"
            problems.append(f"REFERENCES entry {name}: {why}")
        missing = set(re.findall(r"\btest_\w+", reason)) - tests
        problems += [f"REFERENCES entry {name}: no test {test}" for test in sorted(missing)]
    kept = (_targets() | set(REFERENCES)) & set(code)
    unserved = unrun - kept
    while True:
        text = " ".join(code[name] for name in kept)
        helpers = {
            name
            for name in unserved
            if any(re.search(rf"\b{word}\b", text) for word in words[name])
        }
        if not helpers:
            break
        kept |= helpers
        unserved -= helpers
    return problems + [
        f"{name}: no pinned output runs it, and no tracer target or REFERENCES entry needs it"
        for name in sorted(unserved)
    ]


def test_public_names_serve_a_caller():
    # every public top-level class is named in the code of the package, the
    # scripts or the benchmark (read, never imported), or is a REFERENCES
    # entry; a mention in a comment or docstring is no caller.  The census in
    # test_output_manifest.py covers every def.
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    readers = sources + [p for p in sorted((ROOT / "scripts").glob("*")) if p.is_file()]
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    text = {path: code_lines(path) for path in readers}
    unused = []
    for path in sources:
        for i, line in enumerate(path.read_text().splitlines()):
            match = re.match(r"class ([A-Za-z]\w*)", line)
            if not match or f"{path.stem}.{match.group(1)}" in REFERENCES:
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
