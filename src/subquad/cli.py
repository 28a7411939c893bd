"""Command-line interface.

Subcommands
-----------
``fit``
    Fit a model (``dqi``/``mn``/``mfn``/``lfu`` from a sample-set file,
    ``qgsd`` from a direction-bundle file plus a built-in test function)
    and write a model file.
``subspace detect|lift|restrict|compare``
    Detect the displacement subspace of a sample set, move fitted models
    between the full space and a frame's subspace, and probe two models
    for (dis)agreement.
``verify``
    Run the randomized conversion suites and the negative controls,
    writing per-trial tables and a summary.

Exit codes: 0 success, 1 malformed input, 2 violated math precondition
(infeasible values, unpoised set, mismatched reference, ...), 3
verification failure. Every command echoes its effective configuration to
stdout and into the files it writes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import bridge, harness, io, models, simplex
from .errors import FileFormatError, SubquadError, UnknownTheoremError
from .functions import make_function
from .geometry import FEASIBILITY_RTOL, FunctionOracle, detect_subspace

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_VERIFY_FAILED = 3

VERIFY_CHOICES = harness.SUITES + ("qgsd", "negative", "all")


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with our bad-input exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _count(least: int):
    """argparse type: an integer no smaller than ``least``."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}"
            )
        return value
    return count


def _echo_config(command: str, config: dict) -> None:
    print(f"config {io.dumps({'command': command, **config})}")


def _cmd_fit(args) -> int:
    config = {
        "kind": args.kind,
        "in": args.infile,
        "out": args.out,
        "rank_tol": args.rank_tol,
        "tol": args.tol,
    }
    if args.kind == "lfu":
        if args.href is None:
            raise FileFormatError("--kind lfu needs --href")
        config["href"] = args.href
    if args.kind == "qgsd":
        config["variant"] = args.variant
        config["symmetrize"] = bool(args.symmetrize)
        config["function"] = args.function
        bundle, x0 = io.load_bundle(args.infile)
        if args.function is None:
            raise FileFormatError("--kind qgsd needs --function")
        oracle = FunctionOracle(
            make_function(args.function, bundle.n),
            name=args.function, dim=bundle.n,
        )
        result = simplex.fit_qgsd(
            x0, bundle, oracle,
            variant=args.variant,
            symmetrize_hessian=bool(args.symmetrize),
            rank_tol=args.rank_tol,
        )
    else:
        sample_set = io.load_sampleset(args.infile)
        feas = args.tol if args.tol is not None else FEASIBILITY_RTOL
        if args.kind == "dqi":
            result = models.fit_dqi(sample_set, rank_tol=args.rank_tol)
        elif args.kind == "lfu":
            href = io.load_reference(args.href, sample_set.n)
            result = models.fit_lfu(
                sample_set, href, rank_tol=args.rank_tol, feas_tol=feas
            )
        else:
            fit = models.fit_mn if args.kind == "mn" else models.fit_mfn
            result = fit(sample_set, rank_tol=args.rank_tol, feas_tol=feas)
    _echo_config("fit", config)
    io.save_model(args.out, result, config={"command": "fit", **config})
    print(
        f"wrote {args.out}: kind={result.kind} n={result.n} "
        f"ambiguity_dim={result.gradients.dim}"
    )
    return EXIT_OK


def _cmd_subspace_detect(args) -> int:
    config = {"in": args.infile, "out": args.out, "rank_tol": args.rank_tol}
    sample_set = io.load_sampleset(args.infile)
    frame = detect_subspace(sample_set, rank_tol=args.rank_tol)
    _echo_config("subspace detect", config)
    io.save_frame(
        args.out, frame, config={"command": "subspace detect", **config}
    )
    print(f"wrote {args.out}: n={frame.n} d={frame.d}")
    return EXIT_OK


def _cmd_subspace_lift(args) -> int:
    config = {
        "model": args.model, "frame": args.frame, "out": args.out,
        "href": args.href,
    }
    sub = io.load_model(args.model)
    frame = io.load_frame(args.frame)
    if sub.kind in ("mn", "dqi"):
        lifted = bridge.lift_mn(sub, frame)
    elif sub.kind == "mfn":
        lifted = bridge.lift_mfn(sub, frame)
    elif sub.kind == "lfu":
        if args.href is None:
            raise FileFormatError(
                "lifting a least-change model needs --href (full-space)"
            )
        href = io.load_reference(args.href, frame.n)
        lifted = bridge.lift_lfu(sub, frame, href)
    else:
        raise FileFormatError(
            f"cannot lift a model of kind {sub.kind!r}"
        )
    _echo_config("subspace lift", config)
    io.save_model(
        args.out, lifted, config={"command": "subspace lift", **config}
    )
    note = ""
    if lifted.correction_applied is not None:
        note = f" correction_applied={lifted.correction_applied}"
    print(f"wrote {args.out}: kind={lifted.kind} n={lifted.n}{note}")
    return EXIT_OK


def _cmd_subspace_restrict(args) -> int:
    config = {"model": args.model, "frame": args.frame, "out": args.out}
    full = io.load_model(args.model)
    frame = io.load_frame(args.frame)
    restricted = bridge.restrict(full, frame)
    _echo_config("subspace restrict", config)
    io.save_model(
        args.out, restricted,
        config={"command": "subspace restrict", **config},
    )
    print(f"wrote {args.out}: kind={restricted.kind} d={restricted.n}")
    return EXIT_OK


def _cmd_subspace_compare(args) -> int:
    config = {
        "full": args.full, "sub": args.sub, "frame": args.frame,
        "out": args.out, "probes": args.probes, "seed": args.seed,
    }
    full = io.load_model(args.full)
    sub = io.load_model(args.sub)
    frame = io.load_frame(args.frame)
    report = bridge.coincidence_check(
        full, sub, frame, probes=args.probes, seed=args.seed
    )
    _echo_config("subspace compare", config)
    if args.out:
        io.save_report(
            args.out, report,
            config={"command": "subspace compare", **config},
        )
        print(f"wrote {args.out}")
    for key, value in report.to_dict().items():
        print(f"{key}: {value}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = {
        "theorem": args.theorem, "trials": args.trials, "seed": args.seed,
        "tol": args.tol, "probes": args.probes, "out_dir": args.out_dir,
    }
    _echo_config("verify", config)
    results = []
    if args.theorem == "all":
        names = list(harness.SUITES) + ["negative"]
    else:
        names = [args.theorem]
    for name in names:
        if name == "negative":
            result = harness.negative_controls(
                seed=args.seed, trials=args.trials, tol=args.tol,
                probes=args.probes,
            )
        else:
            result = harness.run_suite(
                name, args.trials, tol=args.tol, seed=args.seed,
                probes=args.probes,
            )
        results.append(result)
        status = "pass" if result.passed else "FAIL"
        print(
            f"suite {result.theorem}: {status} "
            f"({result.failures}/{result.trials} failures, "
            f"max gap {result.max_gap:.3e}, tol {result.tol:.1e})"
        )
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for result in results:
            io.save_suite_csv(
                os.path.join(args.out_dir, f"suite_{result.theorem}.csv"),
                result,
            )
        io.save_suite_summary(
            os.path.join(args.out_dir, "summary.json"),
            results, config={"command": "verify", **config},
        )
        print(f"wrote per-trial tables and summary under {args.out_dir}")
    if all(result.passed for result in results):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subquad",
        description=(
            "Quadratic interpolation and simplex-derivative models with "
            "exact full-space/subspace conversions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model and write a model file")
    fit.add_argument("--kind", required=True, choices=io.MODEL_KINDS)
    fit.add_argument("--in", dest="infile", required=True,
                     help="sample-set file (or direction bundle for qgsd)")
    fit.add_argument("--out", required=True, help="model file to write")
    fit.add_argument("--href", default=None,
                     help="reference Hessian: file, I<n>, or 0 (lfu only)")
    fit.add_argument("--variant", default="simple",
                     choices=simplex.VARIANTS, help="qgsd variant")
    fit.add_argument("--symmetrize", action="store_true",
                     help="symmetrize the qgsd Hessian")
    fit.add_argument("--function", default=None,
                     help="built-in function for qgsd stencils "
                          "(sphere, quad[:SEED], cubic[:SEED], trig[:SEED])")
    fit.add_argument("--rank-tol", type=float, default=None)
    fit.add_argument("--tol", type=float, default=None,
                     help="feasibility tolerance "
                          f"(default {FEASIBILITY_RTOL:g})")
    fit.set_defaults(func=_cmd_fit)

    space = sub.add_parser("subspace", help="frame detection and conversion")
    space_sub = space.add_subparsers(dest="subcommand", required=True)

    detect = space_sub.add_parser("detect", help="detect the span of a set")
    detect.add_argument("--in", dest="infile", required=True)
    detect.add_argument("--out", required=True, help="frame file to write")
    detect.add_argument("--rank-tol", type=float, default=None)
    detect.set_defaults(func=_cmd_subspace_detect)

    lift = space_sub.add_parser("lift", help="lift a subspace model")
    lift.add_argument("--model", required=True, help="subspace model file")
    lift.add_argument("--frame", required=True)
    lift.add_argument("--out", required=True)
    lift.add_argument("--href", default=None,
                      help="full-space reference Hessian (lfu lifts)")
    lift.set_defaults(func=_cmd_subspace_lift)

    restrict = space_sub.add_parser(
        "restrict", help="restrict a full-space model to a frame"
    )
    restrict.add_argument("--model", required=True)
    restrict.add_argument("--frame", required=True)
    restrict.add_argument("--out", required=True)
    restrict.set_defaults(func=_cmd_subspace_restrict)

    compare = space_sub.add_parser(
        "compare", help="probe two models for (dis)agreement"
    )
    compare.add_argument("--full", required=True, help="full-space model")
    compare.add_argument("--sub", required=True, help="subspace model")
    compare.add_argument("--frame", required=True)
    compare.add_argument("--out", default=None, help="report file")
    compare.add_argument("--probes", type=_count(0), default=16)
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=_cmd_subspace_compare)

    verify = sub.add_parser(
        "verify", help="run randomized conversion suites"
    )
    verify.add_argument("--theorem", default="all", choices=VERIFY_CHOICES)
    verify.add_argument("--trials", type=_count(1), default=200)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tol", type=float, default=harness.VERIFY_TOL)
    verify.add_argument("--probes", type=_count(0), default=8)
    verify.add_argument("--out-dir", default=None,
                        help="directory for per-trial tables + summary")
    verify.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; parsing leaves
    it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, UnknownTheoremError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SubquadError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
