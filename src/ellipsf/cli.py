"""Command line interface.

Subcommands: analyze | mask | spectrum | eval | verify | report.
Exit codes: 0 pass, 1 property failure, 2 config error, 3 non-isotropic
matrix, 4 mask pole at a digit point.  All outputs are deterministic for a
fixed config and seed; files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import cascade, digits, ioutils, matana, properties, spectral, trigpoly
from .errors import ConfigError, MaskPoleAtDigit, NotExpanding, NotIsotropic, SingularMatrix

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NOT_ISOTROPIC = 3
EXIT_MASK_POLE = 4


@dataclass
class JobConfig:
    matrix: list
    m: int = 1
    J: int = 5
    grid_n: int = 128
    tol: float = 1e-9
    out: str | None = None
    seed: int = 0

    def validate(self):
        M = self.matrix
        if not M or any(len(row) != len(M) for row in M):
            raise ConfigError("matrix must be square")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.J < 0:
            raise ConfigError("J must be >= 0")
        if self.tol <= 0:
            raise ConfigError("tol must be > 0")
        if self.grid_n < 32:
            raise ConfigError("grid_n must be >= 32")


def parse_matrix(text: str) -> list:
    try:
        return [[int(v) for v in row.split(",")] for row in text.strip().split(";")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse matrix {text!r}: {exc}") from exc


def load_config(path: str | None, args) -> JobConfig:
    """Strict config: file first, flags override, unknown keys rejected."""
    allowed = {f.name for f in fields(JobConfig)}
    data = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data.update(raw)
    if args.matrix is not None:
        data["matrix"] = parse_matrix(args.matrix)
    for name in ("m", "J", "grid_n", "tol", "out", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            data[name] = val
    if "matrix" not in data:
        raise ConfigError("no matrix given (use --matrix or a config file)")
    cfg = JobConfig(**data)
    cfg.validate()
    return cfg


def _write_or_print(cfg: JobConfig, name: str, text: str):
    if cfg.out:
        ioutils.atomic_write(os.path.join(cfg.out, name), text)
    else:
        sys.stdout.write(text)


def _profile(cfg: JobConfig) -> spectral.SpectralProfile:
    return spectral.make_profile(cfg.matrix, m=cfg.m, tol=cfg.tol)


def cmd_analyze(cfg: JobConfig) -> int:
    A = matana.validate_dilation(cfg.matrix)
    cert = matana.certify_isotropy(A)
    if not cert.isotropic:
        doc = {"matrix": cfg.matrix, "isotropic": False,
               "failure_reason": cert.failure_reason}
        _write_or_print(cfg, "analyze.json", ioutils.emit_json(doc))
        return EXIT_NOT_ISOTROPIC
    qf = cert.witness
    op = matana.orthogonal_part(A, qf)
    doc = {
        "matrix": cfg.matrix,
        "d": A.d,
        "q": A.q,
        "isotropic": True,
        "Q2": [[float(v) for v in row] for row in qf.Q2],
        "degenerate_solution_space": qf.degenerate,
        "U": [[float(v) for v in row] for row in op.U],
        "digits_A": digits.digits_to_json(digits.digit_set(A.entries)),
        "digits_AT": digits.digits_to_json(digits.digit_set(A.entries.T)),
    }
    _write_or_print(cfg, "analyze.json", ioutils.emit_json(doc))
    return EXIT_OK


def cmd_mask(cfg: JobConfig, profile: spectral.SpectralProfile | None = None) -> int:
    profile = profile or _profile(cfg)
    mask = profile.m0 ** cfg.m
    doc = {
        "matrix": cfg.matrix,
        "m": cfg.m,
        "coefficients": trigpoly.mask_to_json(mask),
        "cosine_form": trigpoly.render_cosine(mask),
    }
    _write_or_print(cfg, "mask.json", ioutils.emit_json(doc))
    if cfg.out:
        ioutils.atomic_write(os.path.join(cfg.out, "mask.txt"),
                             trigpoly.render_cosine(mask) + "\n")
    return EXIT_OK


def cmd_spectrum(cfg: JobConfig, dump_csv: bool = False) -> int:
    profile = _profile(cfg)
    doc = spectral.spectrum_report(profile, grid_n=cfg.grid_n)
    doc = {"matrix": cfg.matrix, "m": cfg.m, **doc}
    _write_or_print(cfg, "spectrum.json", ioutils.emit_json(doc))
    if dump_csv and cfg.out:
        n = min(cfg.grid_n, 64)
        axes = [np.linspace(-2 * math.pi, 2 * math.pi, n) for _ in range(profile.d)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, profile.d)
        head = "# " + ",".join(f"xi_{i + 1}" for i in range(profile.d))
        ioutils.atomic_write(os.path.join(cfg.out, "mu.csv"),
                             ioutils.field_csv(pts, spectral.mu(profile, pts), head + ",mu"))
        ioutils.atomic_write(os.path.join(cfg.out, "phi_hat.csv"),
                             ioutils.field_csv(pts, spectral.phi_hat(profile, pts), head + ",phi_hat"))
    return EXIT_OK


def cmd_eval(cfg: JobConfig) -> int:
    profile = _profile(cfg)
    grid = cascade.sample_phi_m(profile.A, profile.m0, cfg.m, cfg.J)
    _write_or_print(cfg, "grid.csv", ioutils.grid_csv(grid))
    return EXIT_OK


def cmd_verify(cfg: JobConfig, profile: spectral.SpectralProfile | None = None) -> int:
    profile = profile or _profile(cfg)
    pc = properties.PropertyConfig(J=cfg.J, seed=cfg.seed)
    report = properties.run_all(profile, pc)
    # Runtimes are left out of the emitted report: outputs must be
    # byte-identical for a fixed config and seed.
    doc = {"seed": cfg.seed, "J": cfg.J, **report.to_json(include_runtime=False)}
    _write_or_print(cfg, "verify.json", ioutils.emit_json(doc))
    return EXIT_OK if report.passed else EXIT_PROPERTY_FAILURE


def cmd_report(cfg: JobConfig) -> int:
    # Reject an oversize level, and a tol past spectral.MAX_DEPTH already at
    # P = 1, before any file is written: verify's total_positivity grid on
    # [-6 pi, 6 pi]^d reaches P > 1.  A matrix with no profile is left to
    # cmd_analyze and cmd_mask, which report it in order.  The spectrum gets
    # a profile of its own: its --grid-n B must not reach verify's Riesz check.
    try:
        profile = _profile(cfg)
    except (NotIsotropic, MaskPoleAtDigit):
        profile = None
    else:
        cascade.check_level(profile.A, profile.m0, cfg.m, cfg.J)
        spectral.truncation_depth_at(profile, 1.0, cfg.tol)
    codes = [cmd_analyze(cfg), cmd_mask(cfg, profile), cmd_spectrum(cfg),
             cmd_verify(cfg, profile)]
    return max(codes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsf",
        description="Elliptic scaling functions: masks, spectra, lattice values, verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "mask", "spectrum", "eval", "verify", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--matrix", type=str, default=None,
                       help='integer rows, e.g. "1,-1;1,1"')
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--J", type=int, default=None)
        p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "spectrum":
            p.add_argument("--csv", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
    except (ConfigError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "mask":
            return cmd_mask(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, dump_csv=getattr(args, "csv", False))
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "report":
            return cmd_report(cfg)
    except NotIsotropic as exc:
        print(f"not isotropic: {exc}", file=sys.stderr)
        return EXIT_NOT_ISOTROPIC
    except MaskPoleAtDigit as exc:
        print(f"mask pole: {exc}", file=sys.stderr)
        return EXIT_MASK_POLE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularMatrix, NotExpanding, ValueError) as exc:
        print(f"invalid matrix: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
