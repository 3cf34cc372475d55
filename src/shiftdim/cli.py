"""Command-line front end.

Subcommands: lang, special, cover, rokhlin, towerdim, amen, dad, bounds,
certify (full chain), verify (re-check a certificate file).  Exit codes:
0 pass, 1 fail (witnesses in the certificate), 2 inconclusive at this
depth, 3 usage or configuration error or a bad parameter; an error exits
with the code its class declares in ``errors``.  Errors name the stage
that raised them.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
from fractions import Fraction

from .certificates import Certificate
from .errors import ConfigError, ShiftDimError
from .pipeline import (
    STAGES,
    PipelineParams,
    recheck_certificate,
    required_stages,
    run_bounds,
    run_certify,
    run_stages,
    write_file,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """Exits 3 on a usage error, since 2 means inconclusive at this depth."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _window(arg: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in arg.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window set {arg!r}")


def _epsilon(arg: str) -> Fraction:
    try:
        eps = Fraction(arg)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad --epsilon {arg!r}")
    if eps <= 0:
        raise argparse.ArgumentTypeError(f"bad --epsilon {arg!r}: must be positive")
    return eps


# PipelineParams field -> (flag, parser, help).  A subcommand takes the
# flags of the fields its stages read; the defaults live in PipelineParams.
FLAGS = {
    "horizon": ("--horizon", int, "language horizon and report depth"),
    "depth": ("--depth", int, "prefix length k"),
    "past_len": ("--past-len", int, "past length l"),
    "height": ("--height", int, "tower height N"),
    "window_set": ("--window", _window, "window set E, comma-separated"),
    "big_n": ("--big-n", int, "map resolution N"),
    "epsilon": ("--epsilon", _epsilon, "target epsilon as P/Q"),
    "exponent_bound": ("--exponent-bound", int, "groupoid witness bound"),
}


def _emit(cert: Certificate, out: str | None, name: str):
    text = cert.canonical_json()
    if out:
        write_file(out, f"{name}.json", text)
    _sys.stdout.write(text)


def _in_stage(exc) -> str:
    return f" in stage {exc.stage}" if exc.stage else ""


def _exit_for(cert: Certificate) -> int:
    return EXIT_PASS if cert.passed else EXIT_FAIL


def _params(args) -> PipelineParams:
    try:
        with open(args.config) as fh:
            config_text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}")
    given = {f: v for f, v in vars(args).items() if f in FLAGS and v is not None}
    return PipelineParams(config_text=config_text, out_dir=args.out, **given)


def main(argv=None) -> int:
    parser = _Parser(prog="shiftdim")
    sub = parser.add_subparsers(dest="command", required=True)
    # a subcommand per stage that emits a certificate, but bounds, a calculator of --q
    commands = {name: [name] for name, stage in STAGES.items() if stage.emits and name != "bounds"}
    for command, stages in {**commands, "certify": STAGES}.items():
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="subshift presentation file")
        p.add_argument("--out", default=None, help="artifact directory")
        reads = {field for stage in required_stages(stages).values() for field in stage.reads}
        for field, (flag, parse, text) in FLAGS.items():
            if field in reads:
                # special takes its report depth, the horizon its stage reads, as --depth
                flag = "--depth" if (command, field) == ("special", "horizon") else flag
                metavar = flag[2:].upper().replace("-", "_")
                p.add_argument(flag, dest=field, type=parse, metavar=metavar, help=text)
    bounds_p = sub.add_parser("bounds")
    bounds_p.add_argument("--q", type=int, required=True)
    bounds_p.add_argument("--dim-x", type=int, default=0)
    bounds_p.add_argument("--out", default=None)
    verify_p = sub.add_parser("verify")
    verify_p.add_argument("certificate", help="certificate file to re-check")
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # reported by the subcommand's parser, so its usage lists the flags it takes
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")

    try:
        if args.command == "bounds":
            report, cert = run_bounds(args.q, args.dim_x)
            _emit(cert, args.out, "bounds")
            print(
                f"(rokhlin <= {report.rokhlin}, tower <= {report.tower}, "
                f"amenability <= {report.amenability}, dad <= {report.dad}, "
                f"nuclear <= {report.nuclear})"
            )
            return _exit_for(cert)
        if args.command == "verify":
            with open(args.certificate) as fh:
                try:
                    cert = Certificate.from_json(fh.read())
                except ValueError as exc:
                    print(f"verification failed: not a certificate: {exc}")
                    return EXIT_FAIL
            directory, file = os.path.split(args.certificate)
            ok, why = recheck_certificate(cert, directory, name=file.removesuffix(".json"))
            if ok and cert.verdict == "pass":
                print(f"verified: {cert.kind} (pass)")
                return EXIT_PASS
            if not ok:
                print(f"verification failed: {why or cert.first_failure()}")
                return EXIT_FAIL
            print(f"certificate is genuine but records verdict {cert.verdict}: "
                  f"{cert.first_failure()}")
            return _exit_for(cert)

        params = _params(args)
        if args.command == "certify":
            certs, overall = run_certify(params)
            for name, cert in certs.items():
                print(f"{name}: {cert.verdict}")
            print(f"overall: {overall}")
        else:
            certs = run_stages(params, [args.command])
            for name, cert in certs.items():
                _emit(cert, args.out, name)
        return max(_exit_for(cert) for cert in certs.values())
    except ShiftDimError as exc:
        print(f"{exc.outcome}{_in_stage(exc)}: {exc}", file=_sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
