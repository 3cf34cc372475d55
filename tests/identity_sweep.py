"""Identity sweep: what ``shiftdim certify --out`` leaves behind on 66
configurations, as hashes to compare between two versions of the package.

The runs are Fibonacci at k = 200, 300, ..., 3000 (N = 30, epsilon = 5/2),
Thue-Morse at k = 1000 (N = 97) and k = 300, Tribonacci at k = 250,
Tribonacci with its letters cycled at k = 250 and k = 100, and the 16
``RANDOM_RULES`` of ``tests/test_words.py`` at k = 250 and k = 1000.  Each
runs in a child process, and prints one line: its arguments, its exit
code, the sha256 of its stdout and of its stderr, and the sha256 of each
file it wrote, in name order.  A change that should be invisible to users
prints the same lines as its parent.  Run from the repository root, with
the package source to sweep as an optional argument:

    python tests/identity_sweep.py > change.txt
    python tests/identity_sweep.py ../parent/src > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent

SUBSTITUTIONS = {
    "fibonacci": {"0": "01", "1": "0"},
    "thue-morse": {"0": "01", "1": "10"},
    "tribonacci": {"0": "01", "1": "02", "2": "0"},
    "tribonacci-cycled": {"0": "21", "1": "2", "2": "20"},
}


def config(rules: dict[str, str]) -> str:
    lines = ["variant = substitution", f"alphabet = {' '.join(sorted(rules))}"]
    lines += [f"rule.{c} = {' '.join(image)}" for c, image in sorted(rules.items())]
    return "\n".join(lines) + "\n"


def random_rules(src: str) -> list[dict[str, str]]:
    """``RANDOM_RULES``, drawn with the package at ``src``."""
    sys.path[:0] = [src, str(HERE.parent)]
    from tests.test_words import RANDOM_RULES
    return RANDOM_RULES


def sweep(src: str) -> list[tuple[str, str, list[str]]]:
    """(label, configuration text, certify flags) of every run."""
    runs = [
        ("fibonacci", config(SUBSTITUTIONS["fibonacci"]),
         ["--depth", str(k), "--big-n", "30", "--epsilon", "5/2"])
        for k in range(200, 3001, 100)
    ]
    runs += [
        ("thue-morse", config(SUBSTITUTIONS["thue-morse"]), ["--depth", "1000", "--big-n", "97"]),
        ("thue-morse", config(SUBSTITUTIONS["thue-morse"]), ["--depth", "300"]),
        ("tribonacci", config(SUBSTITUTIONS["tribonacci"]), ["--depth", "250"]),
    ]
    runs += [
        ("tribonacci-cycled", config(SUBSTITUTIONS["tribonacci-cycled"]), ["--depth", str(k)])
        for k in (250, 100)
    ]
    runs += [
        (f"random-{i}", config(rules), ["--depth", str(k)])
        for k in (250, 1000) for i, rules in enumerate(random_rules(src))
    ]
    return runs


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(src: str, label: str, text: str, flags: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = pathlib.Path(tmp, "run.cfg"), pathlib.Path(tmp, "out")
        cfg.write_text(text)
        argv = ["certify", "--config", str(cfg), *flags, "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "shiftdim.cli", *argv],
            capture_output=True, env={**os.environ, "PYTHONPATH": src},
        )
        files = sorted(out.iterdir()) if out.is_dir() else []
        written = " ".join(f"{f.name}={digest(f.read_bytes())}" for f in files)
    return (
        f"{label} {' '.join(flags)}: exit {done.returncode} "
        f"stdout={digest(done.stdout)} stderr={digest(done.stderr)} {written}"
    ).rstrip()


def main(argv: list[str]) -> int:
    src = os.path.abspath(argv[0]) if argv else str(HERE.parent / "src")
    for label, text, flags in sweep(src):
        print(run(src, label, text, flags), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
