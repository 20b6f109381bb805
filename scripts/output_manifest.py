"""Pin the bytes that gravoptics prints, and compare them between two checkouts.

    python3 scripts/output_manifest.py                          # check the manifest
    python3 scripts/output_manifest.py --write                  # regenerate it
    python3 scripts/output_manifest.py --compare PARENT CHANGE  # two full checkouts

One in-process generator, ``outputs``, yields every pinned output with its
label and subcommand, in this order: the five commands of
``scripts/reproduce_figure_data.sh`` (``figure``); every warm-up and op of
``perfbench/workloads.sweeps_round``, once as CSV and once as JSON (a ``tomo``
op once: it writes JSON only), each swept ``probs`` and ``g2`` op followed by
a copy whose first rejectable axis ends past its valid range (``rejected``,
``PAST_RANGE``), so that the error a grid reports, and its order, are pinned
too; the GATED inputs, which reach what no figure, op or rejected copy does;
and the P_n table and (<n>, <n^2>, g2) triple
of each draw of ``perfbench/workloads.oracle_round``, in the benchmark's call
order (subcommand ``oracle``).  An output's digest is the sha256 of its exit
code, stdout and stderr, kept apart, so a byte moved from one stream to the
other shows.  An oracle draw prints the bytes of its array; a ``ValueError``
prints its message to stderr and exits 1.

``tests/output_manifest.json`` holds the exit code and digest of every output
for the seeds PINNED; the check names the first one that differs.  A change
that moves bytes on purpose regenerates it with ``--write``, so the moved
outputs show in its diff.  The bytes depend on the libm and numpy builds, so
the manifest also records the python, numpy and platform strings; a check on
another platform fails and says so.  The kernel release is left out of the
platform string: it does not round anything.  The BLAS thread count can
round a Fock-oracle array differently, so the script runs with one thread
and records it (``tests/conftest.py`` sets the same for the test session).

``--compare`` runs the generator for the seeds COMPARED once per checkout,
each in a ``python -B`` worker on that checkout's ``src/``, lists every
output that differs, grouped by subcommand with a count per group, and exits
1 on any difference.  A moved oracle draw that printed an array on both
sides is listed with the largest relative change of its float64 values and
with each side's worst distance to the 80-digit referee of
``perfbench/referee.py`` (P_n absolute, g2 relative; the mean and second
moment of a moment triple have no referee entry), and the largest of each
over the moved P_n tables and over the moved moment triples close the list.
A moved ``tomo`` document is listed with the dotted keys whose values differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

# OpenBLAS can move the last bit of a Fock-oracle array with its thread
# count, so this process and its --compare workers (which inherit the
# environment) use one thread, set before numpy loads
BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "output_manifest.json"
# (sweeps seeds, oracle seeds)
PINNED = (range(901, 903), range(901, 903))
COMPARED = (range(901, 941), range(901, 911))
FORMATS = ("csv", "json")
# the end of a rejected-grid axis: past [0, 1], below 0, |alpha|^2 overflows
PAST_RANGE = {"fraction_q": 1.5, "r": -0.5, "nbar": -0.5, "alpha_mag": 1e200}
# (label, subcommand and flags, config): inputs that reach what no figure, op or rejected copy does
GATED = (
    # an error order: the vacuum at the first point exits 2, before r = 400
    # overflows cosh(2r) (exit 1)
    (
        "g2 vacuum-before-overflow",
        ["g2"],
        {
            "gw": {"alpha_mag": 0.0},
            "sweep": [
                {"parameter": "r", "min": 0.0, "max": 400.0, "steps": 3},
                {"parameter": "nbar", "min": 0.0, "max": 1.0, "steps": 2},
            ],
        },
    ),
    # tomography.snr_quadrature: a noisy round trip whose phi = 0 quadrature
    # has a positive normal-ordered variance (theta = pi), so a drive can be
    # matched; the seed fixes the noise draws
    (
        "tomo matched-snr",
        ["tomo", "--seed", "11"],
        {
            "gw": {"alpha_mag": 1.0, "r": 0.5, "theta": 3.141592653589793, "nbar": 0.2},
            "detector": {"gamma_t": 0.3},
            "noise": {"epsilon": 0.001},
        },
    ),
    # cli._complex: a wave given by alpha_re and alpha_im, swept so that alpha
    # is a grid column
    (
        "probs cartesian-alpha",
        ["probs"],
        {
            "gw": {"alpha_im": 0.4, "r": 0.3, "theta": 0.9, "nbar": 0.2},
            "detector": {"gamma_t": 0.8},
            "sweep": [{"parameter": "alpha_re", "min": -1.0, "max": 1.0, "steps": 3}],
            "n_max": 3,
        },
    ),
)
# the --compare worker: argv is this directory, the checkout and a config directory
WORKER = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[2] + "/src", sys.argv[1]]
import output_manifest as m
json.dump(m.rows(Path(sys.argv[2]), Path(sys.argv[3]), *m.COMPARED), sys.stdout)
"""


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
        "blas_threads": str(BLAS_THREADS),
    }


def rejected(config: dict) -> dict | None:
    """A copy of a swept config whose first rejectable axis ends at PAST_RANGE, or None."""
    for i, axis in enumerate(config.get("sweep", [])):
        if axis["parameter"] in PAST_RANGE:
            sweep = list(config["sweep"])
            sweep[i] = {**axis, "max": PAST_RANGE[axis["parameter"]]}
            return {**config, "sweep": sweep}
    return None


def outputs(checkout: Path, work: Path, seeds, oracle_seeds):
    """(label, subcommand, exit code, stdout, stderr) of every pinned output, in order.

    The figure commands read the checkout's configs; the ops and draws are
    those of this directory's ``perfbench/workloads.py``.
    """
    from gravoptics import cli, fock
    from gravoptics.states import GwSignalParams

    workloads = _load("manifest_workloads", ROOT / "perfbench" / "workloads.py")

    def run(argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(arg) for arg in argv])
        return argv[0], code, out.getvalue().encode(), err.getvalue().encode()

    def config_file(name: str, config: dict) -> Path:
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        return path

    def rounds():
        # each round writes its configs under the same names, so it is made
        # only once the one before it has run
        yield "warm-up", workloads.sweeps_warmup(work)
        for seed in seeds:
            yield f"seed {seed}", workloads.sweeps_round(seed, work)

    def oracle(call) -> tuple:
        try:
            return "oracle", 0, np.asarray(call()).tobytes(), b""
        except ValueError as error:
            return "oracle", 1, b"", str(error).encode()

    for name, args in workloads.CLI_COMMANDS:
        argv = [checkout / arg if arg.startswith("scripts/") else arg for arg in args]
        yield (f"figure {name}", *run([name, *argv]))
    for where, ops in rounds():
        for op in ops:
            if op.kind == "tomo":  # one JSON document, and no --format flag
                yield (f"{where} {op.key} json", *run(op.argv))
            else:
                for fmt in FORMATS:
                    yield (f"{where} {op.key} {fmt}", *run([*op.argv, "--format", fmt]))
            config = rejected(op.config) if op.kind in ("probs", "g2") else None
            if config is not None:
                path = config_file(f"{op.key}-rejected", config)
                yield (f"{where} {op.key} rejected", *run([op.kind, "--config", path]))
    for label, args, config in GATED:
        yield (f"gated {label}", *run([*args, "--config", config_file("gated", config)]))
    for seed in oracle_seeds:
        for op in workloads.oracle_round(seed):
            prm, label = op.params, f"seed {seed} {op.key}"
            p = GwSignalParams(alpha=prm["alpha"], r=prm["r"], theta=prm["theta"], nbar=prm["nbar"])
            gamma_t, n_max = prm["gamma_t"], workloads.ORACLE_N_MAX
            yield (f"{label} table", *oracle(lambda: fock.oracle_pn_table(p, gamma_t, n_max)))
            if prm["with_g2"]:
                yield (f"{label} moments", *oracle(lambda: fock.oracle_moments_and_g2(p, gamma_t)))


def digest(code: int, out: bytes, err: bytes) -> str:
    """sha256 of an exit code, stdout and stderr; the length of stdout keeps the streams apart."""
    return hashlib.sha256(b"%d %d\0" % (code, len(out)) + out + err).hexdigest()


def rows(
    checkout: Path, work: Path, seeds, oracle_seeds
) -> list[tuple[str, str, str, int, str | None]]:
    """(label, subcommand, digest, exit code, values) of every output of ``outputs``.

    values is the hex of the float64 bytes an oracle draw printed, the text
    of the JSON document a ``tomo`` run printed, and None for every other
    output and for a draw or run that failed.
    """
    found = []
    for label, command, code, out, err in outputs(checkout, work, seeds, oracle_seeds):
        values = None
        if code == 0 and command in ("oracle", "tomo"):
            values = out.hex() if command == "oracle" else out.decode()
        found.append((label, command, digest(code, out, err), code, values))
    return found


def build(work: Path) -> dict:
    pinned = rows(ROOT, work, *PINNED)
    entries = {label: {"exit": code, "sha256": sha} for label, _, sha, code, _ in pinned}
    return {**platform_strings(), "outputs": entries}


def first_difference(expected: dict, actual: dict) -> str | None:
    """Why the actual outputs do not match the manifest, or None when they do."""
    for key in ("python", "numpy", "platform", "blas_threads"):
        if expected.get(key) != actual[key]:
            return (
                f"platform mismatch: the manifest was made with {key} {expected.get(key)!r}, "
                f"this run has {actual[key]!r}; output bytes depend on the libm and numpy "
                "builds and the BLAS threads, so regenerate it there "
                "(scripts/output_manifest.py --write)"
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


def differing(parent: list, change: list) -> dict[str, list[str]]:
    """Labels of the outputs whose digests differ between two ``rows`` lists, by subcommand."""
    groups: dict[str, list[str]] = {}
    for (label, command, before, *_), (_, _, after, *_) in zip(parent, change, strict=True):
        if before != after:
            groups.setdefault(command, []).append(label)
    return groups


def relative_change(before: str | None, after: str | None) -> float | None:
    """Largest |after - before| / |before| of two oracle arrays given as ``rows`` values.

    None when either side printed no array or the lengths differ; an entry
    that did not move counts 0, one that moved off 0 counts inf.
    """
    if before is None or after is None or len(before) != len(after):
        return None
    old, new = (np.frombuffer(bytes.fromhex(side)) for side in (before, after))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(new == old, 0.0, np.abs(new - old) / np.abs(old))
    return float(ratios.max(initial=0.0))


def moved_keys(before: str, after: str) -> list[str]:
    """Dotted keys of the leaves whose values differ between two JSON documents given as text.

    A list item's key is its index; a leaf present on one side only counts
    as moved.
    """

    def leaves(value, key: str = ""):
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for name, item in items:
                yield from leaves(item, f"{key}.{name}" if key else str(name))
        else:  # as JSON text, so NaN equals NaN
            yield key, json.dumps(value)

    old, new = (dict(leaves(json.loads(side))) for side in (before, after))
    return [key for key in {**old, **new} if old.get(key) != new.get(key)]


def referee_distances(label: str, sides: list[str]) -> list[float]:
    """Worst distance of each side's array of a moved oracle draw to the 80-digit referee.

    A P_n table is compared level by level, absolutely; a moment triple by
    its g2, relatively.  The draw is made again from its label, by this
    directory's ``perfbench/workloads.oracle_round``.
    """
    referee = _load("manifest_referee", ROOT / "perfbench" / "referee.py")
    workloads = _load("manifest_workloads", ROOT / "perfbench" / "workloads.py")
    _, seed, key, kind = label.split()
    prm = next(op.params for op in workloads.oracle_round(int(seed)) if op.key == key)
    state = referee.direct(prm["alpha"], prm["r"], prm["theta"], prm["nbar"])
    mpf = referee.mpmath.mpf
    arrays = [np.frombuffer(bytes.fromhex(side)) for side in sides]
    if kind == "table":
        ref = referee.pn(state, prm["gamma_t"], len(arrays[0]) - 1)
        return [max(float(abs(mpf(float(v)) - r)) for v, r in zip(a, ref)) for a in arrays]
    ref_g2 = referee.g2(state)[0]
    return [float(abs(mpf(float(a[2])) - ref_g2) / ref_g2) for a in arrays]


def compare(parent: Path, change: Path) -> bool:
    """Run ``rows`` on both checkouts and print what differs, or a summary when nothing does."""
    results = []
    with tempfile.TemporaryDirectory() as work:
        for checkout in (parent, change):
            cmd = [sys.executable, "-B", "-c", WORKER, str(ROOT / "scripts"), str(checkout), work]
            # a worker's stderr passes through, so a checkout that crashes shows why
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            results.append(json.loads(proc.stdout))
    groups = differing(*results)
    values = [{row[0]: row[4] for row in side} for side in results]
    # per kind of moved draw: the largest relative change and each side's worst referee distance
    largest: dict[str, list[float]] = {}
    for command, labels in groups.items():
        print(f"{command}: {len(labels)} differ")
        for label in labels:
            sides = [values[0][label], values[1][label]]
            if command == "tomo" and None not in sides:
                print(f"  {label}: {', '.join(moved_keys(*sides))}")
                continue
            change = relative_change(*sides)
            if change is None:
                print(f"  {label}")
                continue
            before, after = referee_distances(label, sides)
            print(
                f"  {label}: largest relative change {change:.3g}, "
                f"referee distance {before:.3g} -> {after:.3g}"
            )
            worst = largest.setdefault(label.rsplit(" ", 1)[1], [0.0, 0.0, 0.0])
            worst[:] = map(max, worst, (change, before, after))
    for kind, (change, before, after) in largest.items():
        print(
            f"oracle {kind}: largest relative change {change:.3g}, "
            f"worst referee distance {before:.3g} -> {after:.3g}"
        )
    if groups:
        print(f"{sum(map(len, groups.values()))} of {len(results[0])} outputs differ")
        return False
    kinds: dict[str, list] = {"figure": [], "sweeps": [], "gated": [], "oracle": []}
    for label, command, _, code, _ in results[0]:
        kind = "oracle" if command == "oracle" else label.split()[0]
        kinds.get(kind, kinds["sweeps"]).append((label, code))
    codes = [code for label, code in kinds["sweeps"] if label.endswith(" rejected")]
    exits = ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes)))
    tables = sum(label.endswith(" table") for label, _ in kinds["oracle"])
    seeds, oracle_seeds = COMPARED
    print(f"figure data: identical ({len(kinds['figure'])} outputs)")
    print(
        f"sweeps ops: identical ({len(kinds['sweeps'])} outputs, warm-ups and seeds "
        f"{seeds[0]}-{seeds[-1]}; {len(codes)} rejected grids: {exits})"
    )
    print(f"gated inputs: identical ({len(kinds['gated'])} outputs)")
    print(
        f"oracle draws: identical ({tables} P_n tables and {len(kinds['oracle']) - tables} "
        f"moment triples, seeds {oracle_seeds[0]}-{oracle_seeds[-1]})"
    )
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"regenerate {MANIFEST.name}")
    mode.add_argument(
        "--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"), help="compare two checkouts"
    )
    args = parser.parse_args()
    if args.compare:
        return 0 if compare(*(checkout.resolve() for checkout in args.compare)) else 1
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
