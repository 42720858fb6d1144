"""Command-line front end.

Subcommands: gen, invariants, track, retract, verify.  Exit codes:

  0  success
  1  verification failure or unexpected error
  2  invalid input (file format, incompatible dimensions, non-member)
  3  degenerate form or ambiguous region classification
  4  tracking failure (step underflow, unresolved event)
  5  retraction stage failure (message names the stage)

The environment variable KREINLAB_TOL scales every tolerance uniformly.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fileio
from .config import SUITES
from .errors import (AmbiguousClassification, DegenerateForm,
                     DimensionMismatch, IncompatibleDimensions, KreinLabError,
                     MembershipError, OddDimension, InvariantConstraintViolated,
                     StageError, StepUnderflow, UnknownScenario,
                     UnresolvedEvent)
from .krein import (is_j_hermitian, is_j_unitary, make_standard,
                    random_j_hermitian, random_j_unitary)
from .realsym import classify_group, full_invariant_report, is_member, \
    make_real_structure, random_member

GEN_CLASSES = {
    "O": (1, 1),
    "SO*": (-1, -1),
    "SP-ind": (-1, 1),
    "SP-R": (1, -1),
    "U": None,
    "hermitian": None,
}

EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_TRACKING = 4
EXIT_RETRACTION = 5


def _cmd_gen(args) -> int:
    cls = args.cls
    if cls not in GEN_CLASSES:
        raise IncompatibleDimensions(f"unknown class {cls!r}")
    kind = GEN_CLASSES[cls]
    if kind is None:
        K = make_standard(args.n_plus, args.n_minus)
        R = None
        if cls == "hermitian":
            if args.zero:
                a = np.zeros((K.dim, K.dim), dtype=complex)
            else:
                a = random_j_hermitian(K, args.seed)
            member = is_j_hermitian(a, K)
        else:
            a = random_j_unitary(K, args.seed)
            member = is_j_unitary(a, K)
        group = classify_group(K).name if cls == "U" else "hermitian"
    else:
        R = make_real_structure(kind, args.n_plus, args.n_minus)
        K = R.K
        a = random_member(R, "unitary", args.seed)
        member = is_member(a, R, "unitary")
        group = classify_group(R).name
    fileio.write_matrix_file(args.out, a, K, R)
    print(f"wrote {args.out}: {group}, dim {K.dim}, "
          f"membership residual {member.residual:.3e}")
    if not member:
        raise MembershipError("generated matrix failed its own membership",
                              residual=member.residual)
    return 0


def _cmd_invariants(args) -> int:
    mf = fileio.read_matrix_file(args.input)
    rep = full_invariant_report(mf.matrix, mf.R, args.kind, K=mf.K)
    print(fileio.dump_json(rep.to_dict(), indent=1))
    return 0


def _parse_params(items):
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        if not _:
            raise UnknownScenario(f"malformed --param {item!r}, need key=value")
        out[key] = float(val)
    return out


def _cmd_track(args) -> int:
    import os

    from .homotopy import detect_events, scenario_library, track, \
        trajectories_to_csv

    if os.path.exists(args.scenario):
        path = fileio.read_path_file(args.scenario)
    else:
        path = scenario_library(args.scenario, _parse_params(args.param))
    trajs = track(path, initial_grid=args.grid)
    events = detect_events(trajs, path)
    if args.out_csv:
        with open(args.out_csv, "w", newline="") as fh:
            trajectories_to_csv(trajs, fh)
    payload = {
        "path": path.name,
        "events": [e.to_dict() for e in events],
        "n_tracks": len(trajs),
        "n_samples": len(trajs[0].samples) if trajs else 0,
    }
    if args.out_events:
        with open(args.out_events, "w") as fh:
            fileio.dump_json(payload, fh, indent=1)
    else:
        print(fileio.dump_json(payload, indent=1))
    return 0


def _cmd_retract(args) -> int:
    from .retraction import retract_to_model

    mf = fileio.read_matrix_file(args.input)
    trace = retract_to_model(mf.matrix, mf.K, mf.R)
    text = trace.to_json(indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"wrote {args.out}: terminal class {trace.terminal_class}, "
              f"Sig {trace.sig_initial} -> {trace.sig_terminal}")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    out = verify.run_suite(args.suite, n=args.n, seed=args.seed)
    print(fileio.dump_json(out, indent=1))
    return 0 if out["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kreinlab",
        description="Krein-space spectral invariants laboratory.",
        epilog=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random group element file")
    g.add_argument("cls", choices=sorted(GEN_CLASSES),
                   help="matrix class (Table-1 group or plain U/hermitian)")
    g.add_argument("n_plus", type=int)
    g.add_argument("n_minus", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--zero", action="store_true",
                   help="emit the zero matrix (hermitian class only)")
    g.add_argument("--out", default="matrix.json")
    g.set_defaults(fn=_cmd_gen)

    i = sub.add_parser("invariants", help="invariant report for a matrix file")
    i.add_argument("input")
    i.add_argument("--kind", choices=("unitary", "hermitian"), required=True)
    i.set_defaults(fn=_cmd_invariants)

    tr = sub.add_parser("track", help="track eigenvalues along a path")
    tr.add_argument("scenario",
                    help="library scenario name or stored path file")
    tr.add_argument("--grid", type=int, default=33)
    tr.add_argument("--param", action="append",
                    help="scenario parameter key=value (repeatable)")
    tr.add_argument("--out-csv", default=None)
    tr.add_argument("--out-events", default=None)
    tr.set_defaults(fn=_cmd_track)

    r = sub.add_parser("retract", help="run the retraction pipeline")
    r.add_argument("input")
    r.add_argument("--out", default=None)
    r.set_defaults(fn=_cmd_retract)

    v = sub.add_parser("verify", help="run a randomized verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DegenerateForm, AmbiguousClassification, OddDimension,
            InvariantConstraintViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (StepUnderflow, UnresolvedEvent) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRACKING
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RETRACTION
    except (fileio.FileFormatError, IncompatibleDimensions, DimensionMismatch,
            MembershipError, UnknownScenario, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KreinLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
