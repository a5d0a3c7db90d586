"""Command-line entry points: run and eval.

``slam run --out D`` writes D/trajectory.tum, D/map.ply, D/graph.g2o (the
pose graph as g2o text) and D/report.json.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_run(args) -> int:
    from .pipeline import run_pipeline

    result = run_pipeline(args.config, args.dataset, args.mode, args.out)
    print(f"frames: {len(result.trajectory)}  keyframes: {result.keyframe_count}"
          f"  loops: {result.loop_count}  dropped: {result.dropped_frames}"
          f"  degraded: {result.degraded_frames}"
          f"  runtime: {result.runtime_seconds:.1f}s")
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import evaluate_trajectories, read_tum

    est = read_tum(args.est)
    truth = read_tum(args.truth)
    report = evaluate_trajectories(est, truth, align=not args.no_align,
                                   max_dt=args.max_dt)
    print(json.dumps({
        "mean": report.mean,
        "rmse": report.rmse,
        "std": report.std,
        "pairs": len(report.associations),
        "aligned": not args.no_align,
    }, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slam",
        description="LiDAR graph-SLAM: trajectory and map estimation "
                    "from point cloud sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run SLAM over a dataset directory")
    run.add_argument("--config", default=None, help="key = value config file")
    run.add_argument("--dataset", required=True,
                     help="dataset directory (velodyne/*.bin, times.txt)")
    run.add_argument("--mode", choices=["batch", "realtime-sim"],
                     default="batch")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("eval", help="absolute trajectory error of a TUM file")
    ev.add_argument("--est", required=True, help="estimated trajectory (TUM)")
    ev.add_argument("--truth", required=True, help="ground truth (TUM)")
    ev.add_argument("--no-align", action="store_true",
                    help="skip the rigid alignment before computing errors")
    ev.add_argument("--max-dt", type=float, default=0.05,
                    help="association timestamp tolerance in seconds")
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
