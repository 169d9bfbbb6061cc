"""The 36-run output matrix: every command's outputs, for a byte-for-byte diff.

Usage, from the root of the repository:

    python tests/output_matrix.py write SRC OUT
    python tests/output_matrix.py compare OUT_A OUT_B

`write` runs `python -m geompert` with `PYTHONPATH=SRC` (the directory that
holds the `geompert` package, e.g. `src` of a checkout) and BLAS pinned to
one thread, as the benchmark runs it, on the three built-in models and on
the seeded quadratic families N = 6, 16, 32 and 64 of `oracles` (the draws
of the benchmark's `seeded_family(default_rng(0), N)`).  Each model but
N = 64 gets `verify --order 3`, `verify --order 1`, `expand --order 12` and
`sweep --q-max 0.2 --points 50 --order 3`; N = 64 gets `expand --order 12`
alone, which runs the series kernels at the size of the benchmark's
`series-api` and `hierarchy_residuals` in chunks of two orders.  The
built-ins also get `expand --order 18` and `expand --order 25` (25 is
`pipeline.MAX_ORDER`, the highest order a run takes), N = 16 gets
`expand --order 18`, and N = 32 the benchmark's sweep of 200 points.
`toy-sec5` and N = 16 also get `verify` on a window other than the default,
`--q-lo 1e-3 --q-hi 3e-2 --points 13`, and `hermitian-2level` a sweep at an
order other than 3, `sweep --q-max 0.3 --points 40 --order 1`.  Each run's
exit code, stdout, stderr and output files land in `OUT/<run>/`.  The model
files are written by this tree's `serialize_model`, so two matrices written
with one copy of this script read the same inputs whatever SRC is.

`compare` names every run whose exit code, stdout, stderr, series.csv,
sweep.csv or report (report.json, or stdout for `verify`) differs once the
report's `metadata` block (timestamp and timings) is dropped, and exits 1
if any does.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))  # the oracles' geompert: this tree's

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}  # bench/run.py's
SEEDED = (6, 16, 32, 64)
COMMANDS = {
    "verify-3": ["verify", "--order", "3"],
    "verify-1": ["verify", "--order", "1"],
    "expand-12": ["expand", "--order", "12"],
    "sweep-50": ["sweep", "--q-max", "0.2", "--points", "50", "--order", "3"],
}
# every built-in's runs up to the run's order bound, and one seeded family's
HIGH_ORDER = {"expand-18": ["expand", "--order", "18"], "expand-25": ["expand", "--order", "25"]}
# a residual window other than the default
WINDOW = ["verify", "--order", "3", "--q-lo", "1e-3", "--q-hi", "3e-2", "--points", "13"]
EXTRA = {
    "toy-sec5": {"verify-3-window": WINDOW},
    "hermitian-2level": {"sweep-40-order-1": ["sweep", "--q-max", "0.3", "--points", "40",
                                              "--order", "1"]},
    "seeded-N16": {"expand-18": HIGH_ORDER["expand-18"], "verify-3-window": WINDOW},
    "seeded-N32": {"sweep-200": ["sweep", "--q-max", "0.2", "--points", "200", "--order", "3"]},
}
# the models that get these runs alone, in place of COMMANDS
ONLY = {"seeded-N64": {"expand-12": COMMANDS["expand-12"]}}
# what a run leaves: the files compared, in this order
FILES = ("code", "stdout", "stderr", "report.json", "series.csv", "sweep.csv")
# report_json writes `metadata` as the report's last key, at indent 2
METADATA = b'\n  "metadata": '


def _models(out: Path) -> dict[str, str]:
    """The `--model` argument of each model by name, writing the seeded ones."""
    import geompert as g
    from oracles import seeded_quadratic_family

    models = {name: name for name in g.BUILTIN_MODELS}
    (out / "models").mkdir(parents=True)
    for n in SEEDED:
        name = f"seeded-N{n}"
        terms = list(seeded_quadratic_family(0, n).terms)
        path = out / "models" / f"{name}.json"
        path.write_text(g.serialize_model(g.ModelDocument(name, terms)), encoding="utf-8")
        models[name] = str(path)
    return models


def _runs(models: dict[str, str]):
    """(run name, argv) of every run of the matrix."""
    import geompert as g

    for model, arg in models.items():
        high = HIGH_ORDER if model in g.BUILTIN_MODELS else {}
        runs = ONLY.get(model) or {**COMMANDS, **high, **EXTRA.get(model, {})}
        for command, argv in runs.items():
            yield f"{model}.{command}", [*argv, "--model", arg]


def write(src: str, out: str) -> int:
    out_dir = Path(out).resolve()
    out_dir.mkdir(parents=True, exist_ok=False)
    env = {**os.environ, **PINNED, "PYTHONPATH": str(Path(src).resolve())}
    for name, argv in _runs(_models(out_dir)):
        run_dir = out_dir / name
        run_dir.mkdir()
        if argv[0] != "verify":
            argv = [*argv, "--out", str(run_dir)]
        done = subprocess.run([sys.executable, "-m", "geompert", *argv], env=env,
                              capture_output=True, cwd=out_dir)
        (run_dir / "code").write_text(f"{done.returncode}\n")
        (run_dir / "stdout").write_bytes(done.stdout)
        (run_dir / "stderr").write_bytes(done.stderr)
        print(f"{name}: exit {done.returncode}")
    return 0


def _outputs(run_dir: Path) -> dict[str, bytes | None]:
    """Each compared file of a run, None if absent; a report (report.json, or
    the stdout of `verify`; other commands print nothing) without metadata."""
    found = {}
    for name in FILES:
        path = run_dir / name
        text = path.read_bytes() if path.is_file() else None
        if text is not None and name in ("report.json", "stdout"):
            text = text.split(METADATA, 1)[0]
        found[name] = text
    return found


def compare(a: str, b: str) -> int:
    dirs = [Path(a), Path(b)]
    names = [{p.name for p in d.iterdir() if p.is_dir() and p.name != "models"} for d in dirs]
    differ = 0
    for name in sorted(names[0] | names[1]):
        if name not in names[0] or name not in names[1]:
            print(f"{name}: only in {dirs[name in names[1]]}")
            differ += 1
            continue
        left, right = (_outputs(d / name) for d in dirs)
        changed = [f for f in FILES if left[f] != right[f]]
        if changed:
            print(f"{name}: {', '.join(changed)} differ")
            differ += 1
    total = len(names[0] | names[1])
    print(f"{total - differ} of {total} runs identical")
    return 1 if differ or not total else 0


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("write", "compare"):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    return (write if argv[0] == "write" else compare)(*argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
