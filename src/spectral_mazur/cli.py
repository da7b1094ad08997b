"""Command-line interface.

Subcommands
-----------

- ``norm``     evaluate a unitarily invariant norm of a matrix
- ``map``      apply one of the sphere maps to a matrix and write an artifact
- ``verify``   run randomized verification suites and write reports
- ``modulus``  profile the modulus of continuity of a sphere map

Exit codes: 0 success, 1 at least one checked inequality or bound failed,
2 usage / configuration / parse problem, 3 numerical failure, 4 violated
mathematical precondition.

Determinism: given the same seed, configuration, and pinned ``--timestamp``,
every artifact the CLI writes is byte-identical across runs and thread
counts.  The seed comes from ``--seed``, then the config file, then 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import entropy_min_general
from .errors import ConfigError, NumericalFailure, PreconditionError, ZeroMatrix
from .gauge import parse_gauge
from .matnorm import _read_json, matrix_to_json, norm_ui, read_matrix
from .verify import (
    MAP_NAMES,
    SUITE_NAMES,
    SuiteConfig,
    dumps_json,
    estimate_modulus,
    run_inequality_suite,
)
from .verify.config import _fields_json
from .verify.modulus import _profiled_map, _sphere_map
from .verify.suites import _check_threads

__all__ = ["RunManifest", "main", "entry"]

# each map kind is one of the modulus profiler's sphere maps
_MAP_KINDS = {"mazur": "Gp", "mazur-inv": "Gp_inv", "entropy-min": "FX", "gmap": "FX_inv"}


@dataclass(frozen=True)
class RunManifest:
    """Provenance block attached to every written artifact.

    ``command`` is the logical invocation (subcommand plus positionals);
    performance-only options such as thread count are excluded so that the
    manifest bytes cannot depend on them.  Pass ``--timestamp`` to pin the
    timestamp when byte-identical reruns are required.
    """

    command: str
    config: dict
    input_paths: tuple[str, ...]
    output_path: str | None
    version: str
    timestamp: str

    def to_dict(self) -> dict:
        return _fields_json(self)


def _timestamp(args) -> str:
    if args.timestamp is not None:
        return args.timestamp
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--dims expects a comma-separated list of integers, got {text!r}") from None


def _make_dir(path) -> None:
    """Create directory ``path``; an unwritable one is a :class:`ConfigError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    out = Path(path)
    _make_dir(out.parent)
    try:
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _build_config(args) -> SuiteConfig:
    """Assemble the suite configuration: flags > config file > defaults."""
    data: dict = {}
    if getattr(args, "config", None):
        data = _read_json(args.config, "config")
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.dims is not None:
        data["dims"] = list(_parse_dims(args.dims))
    if args.samples is not None:
        data["samples_per_case"] = args.samples
    if args.rel_tol is not None:
        data["rel_tol"] = args.rel_tol
    if args.abs_tol is not None:
        data["abs_tol"] = args.abs_tol
    return SuiteConfig.from_json(data)


def _build_parser() -> argparse.ArgumentParser:
    # each subcommand is offered only the flags it reads, so that an unread
    # flag is a usage error rather than silently ignored
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--seed", type=int, default=None, help="random seed (default: 1)")
    sampled.add_argument("--dims", type=str, default=None, help="comma-separated matrix dimensions")
    sampled.add_argument("--samples", type=int, default=None, help="random samples per (suite, dimension)")
    sampled.add_argument("--rel-tol", type=float, default=None, help="relative tolerance for inequality checks")
    sampled.add_argument("--abs-tol", type=float, default=None, help="absolute tolerance for inequality checks")
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", type=str, default=None, help="output file, directory, or base path")
    written.add_argument("--timestamp", type=str, default=None, help="pin the manifest timestamp (for reproducible artifacts)")

    parser = argparse.ArgumentParser(
        prog="spectral-mazur",
        description="Unitarily invariant matrix norms, nonlinear sphere maps, and randomized verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_norm = sub.add_parser("norm", help="evaluate a unitarily invariant norm")
    p_norm.add_argument("matrix", help="path to a matrix JSON file")
    p_norm.add_argument("--gauge", required=True, help="gauge descriptor, e.g. lp:2, kyfan:3, conv:2:lp:1, dual:lp:3")

    p_map = sub.add_parser("map", parents=[written], help="apply a sphere map to a matrix")
    p_map.add_argument("kind", choices=tuple(_MAP_KINDS))
    p_map.add_argument("matrix", help="path to a matrix JSON file")
    p_map.add_argument("--gauge", required=True, help="gauge descriptor")
    p_map.add_argument("--p", type=float, default=None, help="exponent, read only by mazur and mazur-inv")
    p_map.add_argument(
        "--project",
        action="store_true",
        help="rescale the input onto the map's domain sphere first",
    )

    p_verify = sub.add_parser("verify", parents=[sampled, written], help="run verification suites")
    p_verify.add_argument("suite", help=f"suite name or 'all'; suites: {', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--config", type=str, default=None, help="JSON file with a base suite configuration")
    p_verify.add_argument("--threads", type=int, default=1, help="worker threads (never affects results)")

    p_mod = sub.add_parser("modulus", parents=[sampled, written], help="profile a map's modulus of continuity")
    p_mod.add_argument("map", choices=MAP_NAMES)
    p_mod.add_argument("--gauge", required=True, help="gauge descriptor")
    p_mod.add_argument("--p", type=float, default=None, help="exponent, read only by Gp and Gp_inv")

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_norm(args) -> int:
    g = parse_gauge(args.gauge)
    m = read_matrix(args.matrix)
    print(f"{norm_ui(g, m):.15g}")
    return 0


def _cmd_map(args) -> int:
    kind = args.kind
    g = parse_gauge(args.gauge)
    # the --p rule and the gauge's preconditions are refused before the
    # matrix is read
    dom, _, apply, _ = _sphere_map(_MAP_KINDS[kind], g, args.p, label=kind)
    m = read_matrix(args.matrix)
    if args.project:
        # scale by the largest entry modulus first, dividing the real and
        # imaginary parts as reals: numpy divides a complex array by a real
        # through its reciprocal, which overflows for a subnormal divisor
        peak = float(np.abs(m).max())
        if peak == 0.0:
            raise ZeroMatrix("cannot project the zero matrix onto a sphere")
        m = (m.view(float) / peak).view(complex)
        m = m / norm_ui(dom, m)

    # entropy-min is the profiler's FX map, called here for its solver report too
    report = entropy_min_general(g, m) if kind == "entropy-min" else None
    result = apply(m) if report is None else report.minimizer

    manifest = RunManifest(
        command=f"spectral-mazur map {kind}",
        config={
            "gauge": args.gauge,
            "p": args.p,
            "project": bool(args.project),
        },
        input_paths=(args.matrix,),
        output_path=args.out,
        version=__version__,
        timestamp=_timestamp(args),
    )
    artifact = {"manifest": manifest.to_dict(), "matrix": matrix_to_json(result)}
    if report is not None:
        artifact["report"] = {k: v for k, v in _fields_json(report).items() if k != "minimizer"}
    text = dumps_json(artifact)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    _check_threads(args.threads)
    cfg = _build_config(args)
    if args.suite == "all":
        names = SUITE_NAMES
    elif args.suite in SUITE_NAMES:
        names = (args.suite,)
    else:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {list(SUITE_NAMES)} or 'all'")
    out_dir = args.out or "reports"
    _make_dir(out_dir)  # before any suite runs, so an unwritable --out costs no work

    failed = False
    for name in names:
        report = run_inequality_suite(name, cfg, threads=args.threads)
        path = str(Path(out_dir) / f"{name}.report.json")
        _write_text(path, dumps_json(report.to_json()))
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{name}: {status} cases={report.cases_run} "
            f"violations={len(report.violations)} worst_ratio={report.worst_ratio:.12g}"
        )
        failed = failed or not report.passed
    manifest = RunManifest(
        command=f"spectral-mazur verify {args.suite}",
        config=cfg.to_json(),
        input_paths=tuple([args.config] if args.config else []),
        output_path=out_dir,
        version=__version__,
        timestamp=_timestamp(args),
    )
    _write_text(str(Path(out_dir) / "manifest.json"), dumps_json(manifest.to_dict()))
    return 1 if failed else 0


def _cmd_modulus(args) -> int:
    cfg = _build_config(args)
    g = parse_gauge(args.gauge)
    _profiled_map(args.map, g, args.p)  # refuse a bad call before the output directory exists
    base = args.out or "modulus"
    _make_dir(Path(base).parent)
    profile = estimate_modulus(args.map, cfg, g, p=args.p)
    manifest = RunManifest(
        command=f"spectral-mazur modulus {args.map}",
        config={
            "gauge": args.gauge,
            "p": args.p,
            **{k: v for k, v in cfg.to_json().items() if k not in ("gauges", "p_grid")},
        },
        input_paths=(),
        output_path=base,
        version=__version__,
        timestamp=_timestamp(args),
    )
    _write_text(f"{base}.json", dumps_json({"manifest": manifest.to_dict(), "profile": profile.to_json()}))
    manifest_line = json.dumps(manifest.to_dict(), ensure_ascii=False)
    _write_text(f"{base}.csv", f"# manifest: {manifest_line}\n{profile.to_csv()}")
    print(f"{args.map}: bound_violations={profile.bound_violations} wrote {base}.json {base}.csv")
    return 1 if profile.bound_violations else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.subcommand == "norm":
            return _cmd_norm(args)
        if args.subcommand == "map":
            return _cmd_map(args)
        if args.subcommand == "verify":
            return _cmd_verify(args)
        return _cmd_modulus(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc.name}: {exc}", file=sys.stderr)
        return 4
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
