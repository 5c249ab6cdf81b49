"""Command-line front end: validate / analyze / simulate / optimize / fixture.

Exit codes: 0 success, 1 validation failure or an output pipe closed by its
reader, 2 usage or parse error (an Eb/N0 whose noise variance is out of
range included), or an output path that cannot be written, found before any
work.  Every command is deterministic given its arguments and seed; the
worker count (--threads, default from SCMA_THREADS) never changes any output
file.  Each invocation of analyze, simulate or optimize that writes files
also writes a manifest JSON next to them; ``fixture`` writes none, because
its output is a verbatim copy of shipped data.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import ScmaError, read_codebook_json, write_codebook_json
from .channel import CHANNELS, ebn0_to_n0
from .detector import MpaConfig
from .fixtures import FIXTURE_IDS, load_fixture
from .metrics import i_lower_bound_profile, kpi
from .montecarlo import (
    DEFAULT_MAX_FRAMES,
    DEFAULT_TARGET_ERRORS,
    sweep_ser,
    write_sweep_csv,
)
from .optimizer import CRN_MODES, DeConfig, ObjectiveConfig, optimize
from .structure import (
    builtin_template,
    instantiate,
    read_template_json,
    validate_codebook,
)


class UsageError(Exception):
    pass


# most points an A:STEP:B range may hold; each is a full Monte-Carlo estimate
MAX_RANGE_POINTS = 10_000


def parse_snr_range(text: str) -> list[float]:
    """MATLAB-style inclusive range A:STEP:B of at most ``MAX_RANGE_POINTS``
    points; a bare number is a single point."""
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"invalid range {text!r}; expected A:STEP:B") from None
    if not np.isfinite(values).all():
        raise UsageError(f"range {text!r} has a non-finite value")
    if len(values) == 1:
        return values
    a, step, b = values
    if step == 0.0:
        if a == b:
            return [a]
        raise UsageError(f"zero step in range {text!r}")
    n = np.floor((b - a) / step + 1e-9) + 1
    if n < 1:
        raise UsageError(f"empty range {text!r}")
    if n > MAX_RANGE_POINTS:
        raise UsageError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    return [a + i * step for i in range(int(n))]


def _default_threads() -> int | None:
    """SCMA_THREADS, 1 if unset, or None (``_run`` rejects it) if invalid."""
    try:
        threads = int(os.environ.get("SCMA_THREADS", "1"))
    except ValueError:
        return None
    return threads if threads >= 1 else None


def _output_path(text: str, directory: bool = False) -> Path:
    """``text`` as a Path, checked before any work is done: a file must go
    into an existing writable directory and not be a directory itself; a
    directory output must exist or be makeable under its nearest existing
    ancestor."""
    path = Path(text)
    base = path.parent
    if directory:
        base = next(p for p in (path, *path.parents) if p.exists())
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise UsageError(f"cannot write {text}: {base} is not a writable directory")
    if not directory and path.is_dir():
        raise UsageError(f"cannot write {text}: it is a directory")
    return path


def _load_template(name_or_path: str):
    """A built-in template by name, else a template JSON file."""
    try:
        return builtin_template(name_or_path)
    except KeyError as exc:
        if not Path(name_or_path).exists():
            raise UsageError(exc.args[0]) from None
    return read_template_json(name_or_path)


def _write_manifest(
    directory: Path,
    command: str,
    argv: list[str],
    seed: int | None,
    config: dict,
    outputs: list[str],
    started: float,
    name: str = "manifest.json",
) -> None:
    doc = {
        "command": command,
        "argv": argv,
        "seed": seed,
        "version": __version__,
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "config": config,
        "outputs": outputs,
    }
    (directory / name).write_text(json.dumps(doc, indent=2) + "\n")


def _cmd_validate(args: argparse.Namespace, argv: list[str]) -> int:
    cbs = read_codebook_json(args.codebook)
    report = validate_codebook(cbs)
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def _cmd_analyze(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    cbs = read_codebook_json(args.codebook)
    grid = parse_snr_range(args.n0_grid_db) if args.n0_grid_db else []
    if grid and not args.il_csv:
        raise UsageError("--il-csv is required when --n0-grid-db is given")
    if args.il_csv and not grid:
        raise UsageError("--n0-grid-db is required when --il-csv is given")
    path = _output_path(args.il_csv) if grid else None
    n0s = [ebn0_to_n0(g, cbs.config) for g in grid]
    report = kpi(cbs, rel_tol=args.rel_tol)
    out: dict = {"codebook": args.codebook, "kpi": report.to_dict()}
    outputs: list[str] = []
    if grid:
        rows = ["snr_db,resource,il_bits"]
        means = []
        for g, n0 in zip(grid, n0s):
            per, mean = i_lower_bound_profile(cbs, n0)
            for k, val in enumerate(per):
                rows.append(f"{g:.10g},{k},{val:.10g}")
            rows.append(f"{g:.10g},mean,{mean:.10g}")
            means.append(mean)
        path.write_text("\n".join(rows) + "\n")
        outputs.append(path.name)
        out["il"] = {"grid_db": grid, "mean": means, "csv": str(path)}
        _write_manifest(
            path.parent,
            "analyze",
            argv,
            None,
            {"codebook": args.codebook, "rel_tol": args.rel_tol},
            outputs,
            started,
            name=path.name + ".manifest.json",
        )
    print(json.dumps(out, indent=2))
    return 0


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    if args.frames is not None and args.max_frames is not None:
        raise UsageError("--max-frames caps --target-errors runs, not --frames")
    max_frames = DEFAULT_MAX_FRAMES if args.max_frames is None else args.max_frames
    out = _output_path(args.out)
    cbs = read_codebook_json(args.codebook)
    points = parse_snr_range(args.ebno)
    estimates = sweep_ser(
        cbs,
        points,
        args.channel,
        mpa=MpaConfig(iterations=args.mpa_iters),
        seed=args.seed,
        frames=args.frames,
        target_errors=args.target_errors,
        max_frames=max_frames,
        threads=args.threads,
    )
    write_sweep_csv(estimates, out)
    config = {
        "codebook": args.codebook,
        "channel": args.channel,
        "ebno": args.ebno,
        "frames": args.frames,
        "target_errors": args.target_errors,
        "max_frames": max_frames,
        "mpa_iters": args.mpa_iters,
    }
    _write_manifest(
        out.parent, "simulate", argv, args.seed, config, [out.name], started,
        name=out.name + ".manifest.json",
    )
    print(json.dumps({"points": [e.to_dict() for e in estimates]}, indent=2))
    return 0


def _cmd_optimize(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.perf_counter()
    outdir = _output_path(args.out, directory=True)
    template = _load_template(args.template)
    eval_cfg = ObjectiveConfig(
        ebn0_db=args.ebno,
        channel=args.channel,
        frames=args.frames_per_eval,
        mpa=MpaConfig(iterations=args.mpa_iters),
        crn_mode=args.crn,
        threads=args.threads,
    )
    cfg = DeConfig(
        s_p=args.np,
        d=2 * template.num_params,
        alpha=args.f,
        c_r=args.cr,
        i_max=args.max_iter,
        plateau_eps=args.plateau_eps,
        plateau_window=args.plateau_window,
        seed=args.seed,
        eval=eval_cfg,
    )
    result = optimize(template, cfg)
    outdir.mkdir(parents=True, exist_ok=True)

    history_lines = ["generation,best_ser"]
    history_lines += [
        f"{g},{v:.10g}" for g, v in enumerate(result.history)
    ]
    (outdir / "history.csv").write_text("\n".join(history_lines) + "\n")

    write_codebook_json(instantiate(template, result.a_opt), outdir / "codebook.json")

    config = {
        "template": args.template,
        "channel": args.channel,
        "ebn0_db": args.ebno,
        "s_p": cfg.s_p,
        "d": cfg.d,
        "alpha": cfg.alpha,
        "c_r": cfg.c_r,
        "i_max": cfg.i_max,
        "plateau_eps": cfg.plateau_eps,
        "plateau_window": cfg.plateau_window,
        "frames_per_eval": eval_cfg.frames,
        "crn_mode": eval_cfg.crn_mode,
        "mpa_iters": args.mpa_iters,
        "selection_rule": "strict <; ties keep the incumbent row",
    }
    artifact = {
        "config": config,
        "seed": args.seed,
        "generations": result.generations,
        "stop_reason": result.stop_reason,
        "history": [float(v) for v in result.history],
        "a_opt": [[float(z.real), float(z.imag)] for z in result.a_opt],
        "best_row": [float(v) for v in result.best_row],
    }
    (outdir / "run.json").write_text(json.dumps(artifact, indent=2) + "\n")
    _write_manifest(
        outdir, "optimize", argv, args.seed, config,
        ["history.csv", "codebook.json", "run.json"], started,
    )
    print(json.dumps({
        "best_ser": float(result.history[-1]),
        "generations": result.generations,
        "stop_reason": result.stop_reason,
        "out": str(outdir),
    }, indent=2))
    return 0


def _cmd_fixture(args: argparse.Namespace, argv: list[str]) -> int:
    text = json.dumps(load_fixture(args.id), indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _output_path(args.out).write_text(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scma",
        description="Sparse code multiple access link-level toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks on a codebook file")
    p.add_argument("--codebook", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="distance KPIs and mutual-information bound")
    p.add_argument("--codebook", required=True)
    p.add_argument("--rel-tol", type=float, default=1e-3,
                   help="relative tolerance for kissing-number counting")
    p.add_argument("--n0-grid-db", default=None,
                   help="Eb/N0 grid (A:STEP:B, dB) for the bound sweep")
    p.add_argument("--il-csv", default=None, help="output CSV for the bound sweep")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="Monte-Carlo SER sweep")
    p.add_argument("--codebook", required=True)
    p.add_argument("--channel", choices=CHANNELS, default="awgn")
    p.add_argument("--ebno", required=True, help="Eb/N0 sweep A:STEP:B in dB")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--frames", type=int, default=None,
                       help="fixed frames per SNR point")
    group.add_argument("--target-errors", type=int, default=DEFAULT_TARGET_ERRORS,
                       help="stop a point after this many symbol errors")
    p.add_argument("--max-frames", type=int, default=None,
                   help=f"--target-errors frame cap (default {DEFAULT_MAX_FRAMES})")
    p.add_argument("--mpa-iters", type=int, default=MpaConfig.iterations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", help="differential-evolution codebook search")
    p.add_argument("--template", required=True,
                   help="6x4, 12x6, or a template JSON file")
    p.add_argument("--channel", choices=CHANNELS, default=ObjectiveConfig.channel)
    p.add_argument("--ebno", type=float, required=True,
                   help="optimization Eb/N0 in dB")
    p.add_argument("--np", type=int, default=DeConfig.s_p, help="population size")
    p.add_argument("--cr", type=float, default=DeConfig.c_r, help="crossover rate")
    p.add_argument("--f", type=float, default=DeConfig.alpha, help="mutation scaling factor")
    p.add_argument("--max-iter", type=int, default=DeConfig.i_max)
    p.add_argument("--plateau-eps", type=float, default=DeConfig.plateau_eps)
    p.add_argument("--plateau-window", type=int, default=DeConfig.plateau_window)
    p.add_argument("--frames-per-eval", type=int, default=ObjectiveConfig.frames)
    p.add_argument("--mpa-iters", type=int, default=MpaConfig.iterations)
    p.add_argument("--crn", choices=CRN_MODES, default=ObjectiveConfig.crn_mode,
                   help="common-random-number stream policy")
    p.add_argument("--seed", type=int, default=DeConfig.seed)
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("fixture", help="dump a shipped artifact as JSON")
    p.add_argument("id", choices=sorted(FIXTURE_IDS))
    p.add_argument("out", nargs="?", default=None,
                   help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_fixture)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(list(sys.argv[1:] if argv is None else argv))
        # flushed here, so a reader that closed the pipe is caught below
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # only simulate and optimize have --threads
        if getattr(args, "threads", 1) is None:
            raise UsageError("SCMA_THREADS must be a positive integer, "
                             f"got {os.environ['SCMA_THREADS']!r}")
        return args.func(args, argv)
    except (UsageError, ScmaError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
