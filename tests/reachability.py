"""Reachability gate: which public functions and methods of ``shiftdim``
no run reaches.

Under ``sys.setprofile`` this runs:

- every subcommand with ``--out``, ``certify``, and ``verify`` on every
  certificate written, for Fibonacci, Thue-Morse and Tribonacci at depth
  250;
- ``lang``, ``special`` and ``certify`` on the golden mean shift and the
  full shift, at depths whose languages can be listed, and ``verify`` on
  every certificate written;
- ``towerdim`` on Fibonacci at height 2 over the window {0}, whose few
  level sets the verifier colours exactly;
- ``bounds --q 1``;
- the six demos.

A public function or method that none of these calls must be listed in
``KEPT`` with what keeps it: an acceptance criterion, a ``tracing.SPANS``
target of the benchmark, a test, or an abstract method.  Exits 1 when an
unreached name is missing from ``KEPT``, a name in ``KEPT`` was reached,
is gone, or its reason does not hold.  Run from the repository root:

    PYTHONPATH=src python tests/reachability.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import pathlib
import pkgutil
import re
import runpy
import sys
import tempfile
import time

import shiftdim
from shiftdim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name -> what keeps it, unreached by every run.  A reason starts with one
# of "acceptance criterion" (the name is read in tests/test_acceptance.py),
# "tracing.SPANS" (a benchmark span target, bench/tracing.py), "test <file>"
# (the name is read in that file under tests/) or "abstract method" (the
# body raises NotImplementedError).
KEPT = {
    "amenability:project_finite_support":
        "tracing.SPANS; acceptance criterion 11 projects the map onto its support",
    "cover:CoverGraph.pi": "acceptance criterion 5 reads the prefix of each state",
    "simplex:SimplexPoint.shift": "test test_simplex.py: the reference for l1(other, n)",
    "simplex:skeleton_distance": "acceptance criterion 12 checks its closed form",
    "words:SFTSpec.left_special_count":
        "acceptance criterion 4 counts golden mean's left special words up to m = 100",
    "words:SubshiftSpec.describe": "abstract method",
    "words:single_orbit_spec": "test conftest.py: the single fixed point fixture",
}


def public_names() -> dict:
    """Code object -> ``module:qualified name`` of every public function
    and method defined in ``shiftdim``, properties' getters included."""
    names = {}
    for info in pkgutil.iter_modules(shiftdim.__path__):
        module = importlib.import_module(f"shiftdim.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                names[obj.__code__] = f"{info.name}:{name}"
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    fn = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn):
                        names[fn.__code__] = f"{info.name}:{name}.{attr}"
    return names


CONFIGS = {
    "fibonacci": "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 0\n",
    "thue-morse": "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 1 0\n",
    "tribonacci": (
        "variant = substitution\nalphabet = 0 1 2\nrule.0 = 0 1\nrule.1 = 0 2\nrule.2 = 0\n"
    ),
    "golden-mean": "variant = sft\nalphabet = 0 1\nforbidden = 11\n",
    "full-shift": "variant = full_shift\nalphabet = 0 1\n",
}
DEEP = ("lang", "special", "cover", "rokhlin", "towerdim", "amen", "dad")


def runs(work: pathlib.Path) -> list[list[str]]:
    """The command lines of the set-up that write certificates."""
    lines = [["bounds", "--q", "1", "--out", str(work / "bounds")]]
    for name, text in CONFIGS.items():
        cfg = work / f"{name}.cfg"
        cfg.write_text(text)
        base = ["--config", str(cfg)]
        if name in ("golden-mean", "full-shift"):
            lines += [
                ["lang", *base, "--horizon", "12", "--out", str(work / name / "lang")],
                ["special", *base, "--depth", "12", "--out", str(work / name / "special")],
                ["certify", *base, "--depth", "4", "--horizon", "12",
                 "--out", str(work / name / "certify")],
            ]
            continue
        for command in DEEP:
            depth = ["--horizon", "16"] if command == "lang" else ["--depth", "250"]
            lines.append([command, *base, *depth, "--out", str(work / name / command)])
        lines.append([
            "certify", *base, "--horizon", "16", "--depth", "250", "--big-n", "30",
            "--epsilon", "5/2", "--out", str(work / name / "certify"),
        ])
    # height 2 over the window {0} leaves few enough level sets for the exact chromatic branch
    lines.append([
        "towerdim", "--config", str(work / "fibonacci.cfg"), "--depth", "250", "--height", "2",
        "--window", "0", "--out", str(work / "fibonacci" / "towerdim-exact"),
    ])
    return lines


def reached_codes() -> set:
    """Code objects called while the set-up runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                for argv in runs(work):
                    main(argv)
                for path in sorted(work.rglob("*.json")):
                    main(["verify", str(path)])
                for demo in sorted((ROOT / "demos").glob("*.py")):
                    runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    return seen


def reason_errors(name: str, reason: str, names: dict) -> list[str]:
    """What is wrong with the reason ``KEPT`` gives for ``name``."""
    attr = re.split("[:.]", name)[-1]
    if reason.startswith("tracing.SPANS"):
        ok = f'"{name}":' in (ROOT / "bench" / "tracing.py").read_text()
        return [] if ok else [f"{name}: not a tracing.SPANS target"]
    if reason.startswith(("acceptance criterion", "test ")):
        is_criterion = reason.startswith("acceptance")
        file = "test_acceptance.py" if is_criterion else reason.split()[1].rstrip(":")
        path = ROOT / "tests" / file
        ok = path.is_file() and re.search(rf"\b{attr}\b", path.read_text()) is not None
        return [] if ok else [f"{name}: not read in tests/{file}"]
    if reason.startswith("abstract method"):
        code = next((c for c, n in names.items() if n == name), None)
        ok = code is not None and "NotImplementedError" in code.co_names
        return [] if ok else [f"{name}: does not raise NotImplementedError"]
    return [f"{name}: reason {reason!r} names no criterion, span, test or abstract method"]


def check() -> list[str]:
    names = public_names()
    reached = reached_codes()
    unreached = {name for code, name in names.items() if code not in reached}
    errors = [f"{name}: reached by no run and not in KEPT" for name in sorted(unreached - set(KEPT))]
    for name, reason in sorted(KEPT.items()):
        if name not in names.values():
            errors.append(f"{name}: in KEPT but no longer defined")
        elif name not in unreached:
            errors.append(f"{name}: in KEPT but reached")
        else:
            errors += reason_errors(name, reason, names)
    return errors


if __name__ == "__main__":
    start = time.perf_counter()
    errors = check()
    for line in errors:
        print(line)
    print(f"reachability: {len(errors)} problems, {time.perf_counter() - start:.1f}s")
    sys.exit(1 if errors else 0)
