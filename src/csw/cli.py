"""csw command line: build and check schemes, build norming families,
evaluate norms, run analyses and capture experiments.

Exit codes: 0 pass, 1 claim failure, 2 configuration error, 3 I/O error.
All numeric output is exact "p/q"; reports are deterministic byte-for-byte
for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

from . import norming, schemes
from .errors import ConfigError, CswError
from .vectors import (
    SparseVector,
    canonical_json,
    format_rational,
    parse_entries,
    parse_int,
    parse_rational,
    parse_vector,
)

EXIT_PASS = 0
EXIT_CLAIM_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _out_path(path):
    base = os.environ.get("CSW_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_atomic(path, text):
    path = _out_path(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".csw-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text):
    if getattr(args, "out", None):
        _write_atomic(args.out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _json_text(obj):
    return canonical_json(obj) + "\n"


def _csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit_report(args, report):
    """Emit a report (CSV under `--format csv`, else JSON) and return the
    exit code of its verdict."""
    if getattr(args, "format", "json") == "csv":
        _emit(args, _csv_text(report.to_csv_rows()))
    else:
        _emit(args, _json_text(report.to_json()))
    return EXIT_PASS if report.passed else EXIT_CLAIM_FAILURE


def _parse_int_list(text):
    text = (text or "").strip()
    if not text:
        return []
    return [parse_int(v) for v in text.split(",")]


def _parse_file(path, parse):
    """parse(JSON content of path); undecodable JSON is an I/O error and a
    structural, validation or transport error a configuration error, each naming
    the file."""
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise OSError(f"{path} is not readable JSON: "
                          f"{type(err).__name__}: {err}") from None
    try:
        return parse(obj)
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, CswError) as err:
        raise ConfigError(f"malformed {path}: {type(err).__name__}: {err}") from None


def _load_type(args) -> schemes.TypeSpec:
    spec = args.type
    if os.path.exists(spec) or spec.endswith(".json"):
        return _parse_file(
            spec, lambda obj: schemes.TypeSpec.from_json(obj.get("type", obj)))
    parts = spec.split(";")
    if len(parts) == 1:
        parts += ["", ""]
    if len(parts) != 3:
        raise ConfigError(f"inline type must be 'm-list;n-list;r-list', got {spec!r}")
    return schemes.validate_type(*(_parse_int_list(p) for p in parts))


def _load_scheme(path) -> schemes.Scheme:
    return _parse_file(path, schemes.scheme_from_json)


def _load_family(path) -> norming.NormingFamily:
    return _parse_file(path, norming.family_from_json)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_type_validate(args):
    violations = schemes.type_violations(
        _parse_int_list(args.m), _parse_int_list(args.n), _parse_int_list(args.r))
    payload = {
        "valid": not violations,
        "violations": [
            {"k": k, "constraint": name, "message": msg}
            for k, name, msg in violations
        ],
    }
    _emit(args, _json_text(payload))
    return EXIT_PASS if not violations else EXIT_CLAIM_FAILURE


def cmd_scheme_build(args):
    scheme = schemes.build_scheme(_load_type(args))
    report = schemes.check_axioms(scheme)
    _emit(args, schemes.scheme_dumps(scheme) + "\n")
    return EXIT_PASS if report.passed else EXIT_CLAIM_FAILURE


def cmd_scheme_check(args):
    return _emit_report(args, schemes.check_axioms(_load_scheme(args.scheme)))


def cmd_norming_build(args):
    scheme = _load_scheme(args.scheme)
    if args.space == "eps":
        if args.scale_cap is not None:
            raise ConfigError("--scale-cap applies only to --space k")
        family = norming.build_eps_family(scheme, args.param)
    else:
        cap = 1 if args.scale_cap is None else args.scale_cap
        family = norming.build_K_family(scheme, args.param, scale_cap=cap)
    _emit(args, norming.family_dumps(family) + "\n")
    return EXIT_PASS


def cmd_norm_eval(args):
    family = _load_family(args.family)
    entries = parse_entries(args.vec)
    family.scheme.in_universe(entries)  # the positions as written, zeros too
    value = norming.norm(SparseVector(entries), family, mode=args.norm_mode)
    print(format_rational(value))
    return EXIT_PASS


def cmd_analyze(args):
    # only the commands that run an analysis import it, and with it the exact LP
    from . import analysis
    only = {"lp_every": "coherence", "samples": "welldef", "seed": "welldef"}
    given = {k: v for k in only if (v := getattr(args, k)) is not None}
    for name in given:
        if only[name] != args.what:
            raise ConfigError(f"--{name.replace('_', '-')} applies only to analyze {only[name]}")
    family = _load_family(args.family)
    if args.what == "biorth":
        report = analysis.check_biorthogonality(family)
    elif args.what == "coherence":
        report = analysis.coherence_report(family, **given)
    elif args.what == "welldef":
        report = analysis.well_definedness_report(family, **given)
    else:  # basis-constant
        report = analysis.basis_constant(family).report
    return _emit_report(args, report)


def cmd_experiment_eps(args):
    from . import analysis
    eps = parse_rational(args.eps)
    config = analysis.EpsExperimentConfig(
        n=args.n, pattern=parse_vector(args.pattern) if args.pattern else None)
    config.validated(eps)  # before the family build, which dominates on deep types
    scheme = schemes.build_scheme(_load_type(args))
    family = norming.build_eps_family(scheme, eps)
    return _emit_report(args, analysis.run_eps_experiment(family, config))


def cmd_experiment_kbasis(args):
    from . import analysis
    K = parse_rational(args.k)
    config = analysis.KExperimentConfig(
        n=args.n, L=parse_rational(args.L), kprime=parse_rational(args.kprime),
        pattern=parse_vector(args.pattern) if args.pattern else None)
    config.validated(K)  # before the family build, which dominates on deep types
    scheme = schemes.build_scheme(_load_type(args))
    family = norming.build_K_family(scheme, K, scale_cap=args.scale_cap)
    return _emit_report(args, analysis.run_K_experiment(family, config))


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="csw",
        description="Construction-scheme workbench: exact rational norms over "
                    "recursively amalgamated functional families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_type = sub.add_parser("type", help="type arithmetic")
    type_sub = p_type.add_subparsers(dest="subcommand", required=True)
    p_tv = type_sub.add_parser("validate", help="check a type triple")
    p_tv.add_argument("--m", required=True, help="comma list, length depth+1")
    p_tv.add_argument("--n", default="", help="comma list, length depth")
    p_tv.add_argument("--r", default="", help="comma list, length depth")
    p_tv.add_argument("--out")
    p_tv.set_defaults(func=cmd_type_validate)

    p_scheme = sub.add_parser("scheme", help="build or check schemes")
    scheme_sub = p_scheme.add_subparsers(dest="subcommand", required=True)
    p_sb = scheme_sub.add_parser("build")
    p_sb.add_argument("--type", required=True,
                      help="inline 'm;n;r' (comma lists) or a JSON file")
    p_sb.add_argument("--out")
    p_sb.set_defaults(func=cmd_scheme_build)
    p_sc = scheme_sub.add_parser("check")
    p_sc.add_argument("scheme", help="scheme JSON file")
    p_sc.add_argument("--out")
    p_sc.set_defaults(func=cmd_scheme_check)

    p_norming = sub.add_parser("norming", help="build norming families")
    norming_sub = p_norming.add_subparsers(dest="subcommand", required=True)
    p_nb = norming_sub.add_parser("build")
    p_nb.add_argument("--scheme", required=True)
    p_nb.add_argument("--space", choices=("eps", "k"), required=True)
    p_nb.add_argument("--param", required=True, help="eps or K as 'p/q'")
    p_nb.add_argument("--scale-cap", dest="scale_cap", type=parse_int, default=None,
                      help="K only; default 1")
    p_nb.add_argument("--out")
    p_nb.set_defaults(func=cmd_norming_build)

    p_norm = sub.add_parser("norm", help="evaluate norms")
    norm_sub = p_norm.add_subparsers(dest="subcommand", required=True)
    p_ne = norm_sub.add_parser("eval")
    p_ne.add_argument("--family", required=True)
    p_ne.add_argument("--vec", default="", help="'pos:val,pos:val' with p/q values")
    p_ne.add_argument("--norm-mode", dest="norm_mode", choices=("local", "all"),
                      default="local")
    p_ne.set_defaults(func=cmd_norm_eval)

    p_an = sub.add_parser("analyze", help="run verification sweeps")
    p_an.add_argument("what", choices=("biorth", "basis-constant", "coherence",
                                       "welldef"))
    p_an.add_argument("--family", required=True)
    p_an.add_argument("--format", choices=("json", "csv"), default="json")
    p_an.add_argument("--lp-every", dest="lp_every", type=parse_int,
                      help="coherence only: cross-check every n-th checked direct "
                           "hull certificate by LP")
    p_an.add_argument("--samples", type=parse_int, help="welldef only; default 200")
    p_an.add_argument("--seed", type=parse_int, help="welldef only; default 0")
    p_an.add_argument("--out")
    p_an.set_defaults(func=cmd_analyze)

    p_exp = sub.add_parser("experiment", help="capture experiments")
    exp_sub = p_exp.add_subparsers(dest="subcommand", required=True)
    p_ee = exp_sub.add_parser("eps")
    p_ee.add_argument("--type", required=True)
    p_ee.add_argument("--eps", required=True)
    p_ee.add_argument("--n", type=parse_int, required=True,
                      help="m = 2 n eps must be an integer")
    p_ee.add_argument("--pattern", default=None)
    p_ee.add_argument("--out")
    p_ee.set_defaults(func=cmd_experiment_eps)
    p_ek = exp_sub.add_parser("kbasis")
    p_ek.add_argument("--type", required=True)
    p_ek.add_argument("--k", required=True)
    p_ek.add_argument("--n", type=parse_int, required=True)
    p_ek.add_argument("--L", required=True)
    p_ek.add_argument("--kprime", default="1")
    p_ek.add_argument("--scale-cap", dest="scale_cap", type=parse_int, default=1)
    p_ek.add_argument("--pattern", default=None)
    p_ek.add_argument("--out")
    p_ek.set_defaults(func=cmd_experiment_kbasis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:  # a valid input too large to hold, as a huge type's universe
        print("configuration error: out of memory for this input", file=sys.stderr)
        return EXIT_CONFIG
    except CswError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
