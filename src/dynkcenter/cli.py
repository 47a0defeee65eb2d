"""Command-line interface: stream generation, replay, verification and
benchmarking.

Exit codes: 0 success, 1 usage error, 2 invariant or verification failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import core, oracle, runner, streamgen
from .errors import DynKCenterError, InvalidParameter, InvariantViolation, StreamError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dynkcenter", description="Dynamic k-center clustering with lifetimes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a stream file")
    gen.add_argument("--kind", required=True, choices=["sliding", "random", "hbounded", "adversarial"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--h", type=int, default=0)
    gen.add_argument("--window", type=int, default=10)
    gen.add_argument("--gamma", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--max-life", type=int, default=20)
    gen.add_argument("--out", required=True)
    gen.add_argument("--matrix-out", default=None, help="sidecar CSV for matrix metrics")

    def common(p, oracle_cap=False):
        p.add_argument("--algo", required=True, choices=list(runner.ALGORITHMS))
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--dmin", type=float, default=None)
        p.add_argument("--dmax", type=float, default=None)
        p.add_argument("--prescan", action="store_true",
                       help="compute distance bounds from the stream")
        p.add_argument("--stream", required=True)
        p.add_argument("--metric", default="euclidean",
                       help="'euclidean' or 'matrix:PATH'")
        p.add_argument("--queries", default="end",
                       help="'every', 'end', or 'at:t1,t2,...'")
        p.add_argument("--report", default=None, help="CSV output path")
        p.add_argument("--no-reclustering", action="store_true")
        if oracle_cap:
            p.add_argument("--oracle-cap", type=int, default=oracle.ENUMERATION_CAP)

    run_p = sub.add_parser("run", help="replay a stream")
    common(run_p)

    ver_p = sub.add_parser("verify", help="replay with oracle and invariant audits")
    common(ver_p, oracle_cap=True)

    bench_p = sub.add_parser("bench", help="operation-count growth benchmark")
    bench_p.add_argument("--sizes", required=True, help="comma list, e.g. 200,400,800")
    bench_p.add_argument("--kind", default="adversarial", choices=["adversarial", "random"])
    bench_p.add_argument("--algo", default="two", choices=list(runner.ALGORITHMS))
    bench_p.add_argument("--k", type=int, default=2)
    bench_p.add_argument("--epsilon", type=float, default=1.0)
    bench_p.add_argument("--gamma", type=float, default=1.0)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--max-life", type=int, default=64)
    bench_p.add_argument("--dim", type=int, default=2)
    bench_p.add_argument("--no-reclustering", action="store_true")
    return parser


def _load_metric(args, points):
    if args.metric == "euclidean":
        dims = {len(p.payload) for p in points if not isinstance(p.payload, int)}
        if len(dims) != 1:
            raise DynKCenterError("stream has no consistent coordinate dimension")
        return core.EuclideanMetric(dims.pop())
    if args.metric.startswith("matrix:"):
        table = core.load_matrix_csv(args.metric.split(":", 1)[1])
        return core.MatrixMetric(table)
    raise DynKCenterError(f"unknown metric spec {args.metric!r}")


def _parse_queries(spec):
    if spec in ("every", "end"):
        return spec
    if spec.startswith("at:"):
        times = _int_list("--queries", spec[3:])
        if not times:
            raise InvalidParameter("--queries at: needs at least one time")
        return times
    raise DynKCenterError(f"bad --queries value {spec!r}")


def _int_list(flag, text):
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise InvalidParameter(f"bad {flag} value {text!r}: not a comma list of integers") from None


def _generate(args, n):
    """The seeded stream that `--kind` names, at size n."""
    if args.kind == "sliding":
        coords, _ = streamgen.uniform_coords(n, args.dim, args.seed)
        return streamgen.sliding_window_stream(coords, args.window)
    if args.kind == "random":
        return streamgen.random_lifetime_stream(n, args.dim, args.max_life, args.seed)
    if args.kind == "hbounded":
        return streamgen.h_bounded_stream(n, args.h, args.dim, args.seed)
    return streamgen.adversarial_quadratic_stream(n, args.gamma)


def _cmd_gen(args):
    gen = _generate(args, args.n)
    if args.kind == "adversarial":
        matrix_out = args.matrix_out or args.out + ".matrix.csv"
        core.save_matrix_csv(gen.metric.table, matrix_out)
        print(f"wrote matrix sidecar to {matrix_out}")
    core.save_stream_jsonl(gen.stream.points, args.out)
    print(
        f"wrote {len(gen.stream.points)} points to {args.out} "
        f"(d_min={gen.stream.d_min:.6g}, d_max={gen.stream.d_max:.6g}, "
        f"H={streamgen.measure_h(gen.stream)})"
    )
    return 0


def _cmd_run(args, verify):
    if args.prescan and (args.dmin is not None or args.dmax is not None):
        raise InvalidParameter("--prescan measures the bounds; it takes no --dmin/--dmax")
    points = core.load_stream_jsonl(args.stream)
    if not points:
        raise StreamError(f"{args.stream}: no points")
    metric = _load_metric(args, points)
    if not args.prescan and (args.dmin is None or args.dmax is None):
        raise DynKCenterError("supply --dmin/--dmax or use --prescan")
    bounds = () if args.prescan else (args.dmin, args.dmax)
    stream = core.validate_stream(points, metric, *bounds)
    config = runner.RunConfig(
        algorithm=args.algo,
        k=args.k,
        epsilon=args.epsilon,
        d_min=stream.d_min,
        d_max=stream.d_max,
        queries=_parse_queries(args.queries),
        verify=verify,
        reclustering_enabled=not args.no_reclustering,
        oracle_cap=getattr(args, "oracle_cap", oracle.ENUMERATION_CAP),
    )
    report = runner.run(config, stream, metric)
    if args.report:
        report.to_csv(args.report)
        print(f"wrote {len(report.rows)} report rows to {args.report}")
    for row in report.rows:
        print(
            f"t={row['time']} active={row['active_size']} radius={row['radius']} "
            f"oracle={row['oracle_radius']} gamma={row['gamma']} "
            f"ops={row['structural_ops']} dists={row['distance_evals']}"
        )
    if verify:
        print("verification passed: all invariants and ratio bounds hold")
    return 0


def _cmd_bench(args):
    sizes = _int_list("--sizes", args.sizes)
    if not sizes:
        raise InvalidParameter(f"bad --sizes value {args.sizes!r}: no sizes")
    adversarial = args.kind == "adversarial"
    # The adversarial stream runs on one guess, gamma, to show reclustering's
    # effect; random streams on a ladder over their whole distance range.
    config = runner.RunConfig(
        algorithm=args.algo,
        k=args.k,
        epsilon=args.epsilon,
        d_min=args.gamma if adversarial else 0.05,
        d_max=args.gamma if adversarial else 2.0,
        reclustering_enabled=not args.no_reclustering,
        single_gamma=args.gamma if adversarial else None,
    )
    rows = runner.bench(functools.partial(_generate, args), config, sizes)
    print("n,structural_ops,distance_evals,wall_time,peak_stored,growth_ratio")
    for row in rows:
        print(
            f"{row['n']},{row['structural_ops']},{row['distance_evals']},"
            f"{row['wall_time']:.4f},{row['peak_stored']},"
            f"{row.get('growth_ratio', '')}"
        )
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args, verify=False)
        if args.command == "verify":
            return _cmd_run(args, verify=True)
        if args.command == "bench":
            return _cmd_bench(args)
    except InvariantViolation as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 2
    except (DynKCenterError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
