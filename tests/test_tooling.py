import ast
import cProfile
import importlib.util
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

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


def test_cli_import_loads_no_executor_or_logging():
    # every CLI call pays its import, and an executor would bring
    # concurrent.futures and logging with it
    code = "import sys, gravoptics.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"concurrent.futures", "logging"} & loaded


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


def profiled(call, *args):
    """``call(*args)`` under cProfile, and the (file, first line) of each Python function it ran.

    The profiler sees the calling thread only, which runs all of the
    package's code (test_package_starts_no_thread_or_process).
    """
    profile = cProfile.Profile(builtins=False)  # the census reads Python calls only
    value = profile.runcall(call, *args)
    ran = {(entry.code.co_filename, entry.code.co_firstlineno) for entry in profile.getstats()}
    return value, ran


def census(ran: set[tuple[str, int]]) -> list[str]:
    """Each def of the package that serves nothing, and each REFERENCES entry that is wrong.

    A def serves when ``ran`` (the (file, first line) of each Python function
    that a run of every pinned output called, from ``profiled``) holds it,
    when it is a tracer target or a REFERENCES entry, or when it is only a
    helper of those: the code of one names it, or names the class of a
    method (a dunder, a dataclass hook), and so on transitively.  An entry
    is wrong when it names no class or def, when a pinned output runs it, or
    when its reason names a test that does not exist.
    """
    package = Path(gravoptics.__file__).parent
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


def test_package_starts_no_thread_or_process():
    # the census profiles the calling thread alone, and the benchmark's tracer
    # keeps one span stack: both see every call only while the package runs
    # all of its code on the caller's thread
    spawners = ("threading", "concurrent.futures", "multiprocessing")
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports += [(path.name, node.module)]
                imports += [(path.name, f"{node.module}.{alias.name}") for alias in node.names]
    found = [
        f"{name}: {module}"
        for name, module in imports
        if any(module == spawner or module.startswith(spawner + ".") for spawner in spawners)
    ]
    assert not found, found


def test_public_names_serve_a_caller():
    # every public top-level class is named in the code of the package, the
    # scripts or the benchmark (read, never imported), or is a REFERENCES
    # entry; a mention in a comment or docstring is no caller.  The census in
    # test_output_manifest.py covers every def.
    sources = sorted(PACKAGE.glob("*.py"))
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


def load_file(path: Path):
    """A script as a module, leaving no bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_bench_compare_summarizes_synthetic_pairs():
    bench = load_file(ROOT / "scripts" / "bench_compare.py")
    # per metric: (better, parent values, change values) of ten pairs
    spread = [0.0, 0.05, -0.05, 0.1, -0.1, 0.02, -0.02, 0.08, -0.08, 0.04]
    cases = {
        "clear_drop": ("lower", [49.0 + d for d in spread], [48.0 + d for d in spread]),
        "ties": ("higher", [100.0 + d for d in spread], [100.0 + d for d in spread]),
        "inside_iqr": ("higher", [100 + 50 * d for d in spread], [101 + 50 * d for d in spread]),
        "eight_wins": ("lower", [10.0] * 10, [8.0] * 8 + [12.0] * 2),
    }
    metrics = [{"name": name, "unit": "u", "better": case[0]} for name, case in cases.items()]
    runs = []
    for pair in range(10):
        for side, column in (("parent", 1), ("change", 2)):
            values = {name: {"value": case[column][pair]} for name, case in cases.items()}
            result = {"metrics": values, "failed": pair % 2, "attempted": 100}
            run = {"pair": pair, "seed": 901 + pair, "workload": "w", "side": side}
            runs.append({**run, "result": result})
    # an unfinished pair and a failed run count for nothing
    run = {"pair": 10, "seed": 911, "workload": "w"}
    runs += [{**run, "side": "parent", "result": result}]
    runs += [{**run, "side": "change", "result": {"error": ["x"]}}]
    summary = bench.summarize(runs, metrics)
    assert summary == bench.summarize(runs, metrics)  # the bootstrap is seeded
    assert summary["w"]["pairs"] == 10
    rows = summary["w"]["metrics"]
    assert rows["failed_share"] == {"parent": [0.0, 0.01], "change": [0.0, 0.01]}

    drop = rows["clear_drop"]
    assert drop["unit"] == "u" and drop["better"] == "lower" and drop["change_wins"] == 10
    assert drop["parent"]["median"] == pytest.approx(49.01)
    assert drop["change"]["median"] == pytest.approx(48.01)
    assert drop["parent"]["q1"] < drop["parent"]["median"] < drop["parent"]["q3"]
    ratios = sorted(c / p for p, c in zip(cases["clear_drop"][1], cases["clear_drop"][2]))
    ratio = drop["ratio"]
    assert ratio["median"] == pytest.approx((ratios[4] + ratios[5]) / 2)
    assert ratios[0] <= ratio["lo90"] <= ratio["median"] <= ratio["hi90"] < 1
    assert drop["claimable"] is True

    ties = rows["ties"]
    assert ties["change_wins"] == 0 and ties["claimable"] is False
    assert ties["ratio"] == {"median": 1.0, "lo90": 1.0, "hi90": 1.0}
    # every pair won, but the gap (1) is inside the parent's interquartile range
    inside = rows["inside_iqr"]
    assert inside["change_wins"] == 10 and inside["claimable"] is False
    assert inside["parent"]["q3"] - inside["parent"]["q1"] > 1.0
    # a wide gap, but two pairs lost
    eight = rows["eight_wins"]
    assert eight["change_wins"] == 8 and eight["claimable"] is False
    # fewer than ten pairs never claim
    assert bench.claimable({**drop, "change_wins": 5}, 5) is False
