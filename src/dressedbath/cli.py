"""Command-line surface.

Subcommands ``spectrum | decay | brownian | cavity | validate`` wrap the
library modules and emit CSV with a ``#``-prefixed metadata header, 17
significant digits throughout so every float round-trips exactly.  Exit
codes: 0 success, 1 input error, 2 numerical failure, 3 validation
failure.  Each command returns its text and exit code, and ``main`` alone
writes the text and turns ``InputError`` and ``NumericalFailure`` into
exit codes 1 and 2.  Errors and warnings reach stderr as single
``error: ...``, ``numerical failure: ...`` and ``warning: ...`` lines.

Config files are flat UTF-8 ``key=value`` lines with ``#`` comments;
command-line flags override file values, and both are checked by the same
rules.  Exactly one of {g, beta} and one of {cavity_L, delta} must be
given.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from . import amplitudes as _amp
from . import brownian as _brownian
from . import oracle as _oracle
from . import spectrum as _spectrum
from .errors import DressedBathError, InputError
from .model import (
    LIGHT_SPEED_SI, OhmicSystemSpec, _spec_text, classify_regime, derive_parameters,
)

# every config key, in the order the flags are listed: a number, an
# integer, a free string or one of a tuple of choices
_KEYS = {
    "bar_omega": float, "beta": float, "cavity_L": float, "delta": float,
    "eq11_variant": ("paper", "rederived"), "g": float, "hbar": float,
    "k_max": int, "light_speed": float,
    "method": ("discrete", "closed", "quadrature"), "n_bar": float,
    "n_modes": int, "out": str, "regime": ("weak", "strong"),
    "route": ("finite-n", "cavity", "small-l"), "samples": int,
    "t_max": float, "theta": float,
}
# f00_closed on 10**6 times takes about 1 s and a 0.37 GB tracemalloc peak
_MAX_SAMPLES = 1_000_000


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _coerce(key: str, raw: str):
    kind = _KEYS.get(key)
    if kind is None:
        raise InputError(f"unknown config key: {key}")
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"key {key} expects a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise InputError(f"key {key} must be finite, got {raw!r}")
        return value
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise InputError(f"key {key} expects an integer, got {raw!r}") from None
    if kind is not str and raw not in kind:
        raise InputError(f"key {key} must be one of {', '.join(kind)}; got {raw!r}")
    return raw


def load_config(path: str) -> dict:
    """Parse a flat key=value config file (``#`` starts a comment)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    cfg: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        cfg[key.strip()] = _coerce(key.strip(), raw.strip())
    return cfg


def resolve_config(args: argparse.Namespace) -> dict:
    """File config overlaid with any explicitly given flags."""
    cfg = load_config(args.config) if args.config else {}
    for key in _KEYS:
        raw = getattr(args, key)
        if raw is not None:
            cfg[key] = _coerce(key, raw)
    return cfg


def build_spec(cfg: dict) -> OhmicSystemSpec:
    if "bar_omega" not in cfg:
        raise InputError("missing required key: bar_omega")
    bar_omega = cfg["bar_omega"]
    has_g, has_beta = "g" in cfg, "beta" in cfg
    if has_g == has_beta:
        raise InputError("exactly one of {g, beta} is required")
    has_length, has_delta = "cavity_L" in cfg, "delta" in cfg
    if has_length == has_delta:
        raise InputError("exactly one of {cavity_L, delta} is required")
    light_speed = cfg.get("light_speed", LIGHT_SPEED_SI)
    g = cfg["g"] if has_g else cfg["beta"] * bar_omega
    if g <= 0.0:
        raise InputError("g (or beta * bar_omega) must be positive")
    cavity_L = cfg["cavity_L"] if has_length else 2.0 * light_speed * cfg["delta"] / g
    return OhmicSystemSpec(
        bar_omega=bar_omega,
        g=g,
        cavity_L=cavity_L,
        n_modes=cfg.get("n_modes", 1),
        light_speed=light_speed,
        hbar=cfg.get("hbar", 1.0),
    )


def _time_grid(cfg: dict, spec: OhmicSystemSpec) -> np.ndarray:
    t_max = cfg.get("t_max", 50.0 / spec.bar_omega)
    samples = cfg.get("samples", 200)
    if t_max <= 0.0:
        raise InputError(f"t_max must be positive, got {t_max!r}")
    if t_max == math.inf:
        raise InputError(f"the default t_max = 50/bar_omega overflows at bar_omega = "
                         f"{spec.bar_omega:.6g}; give t_max")
    if samples < 2:
        raise InputError(f"samples must be at least 2, got {samples!r}")
    if samples > _MAX_SAMPLES:
        raise InputError(f"samples is capped at {_MAX_SAMPLES}, got {samples}")
    return np.linspace(0.0, t_max, samples)


def _amplitude(method: str, spec: OhmicSystemSpec, times: np.ndarray):
    if method == "closed":
        return _amp.f00_closed(spec, times)
    if method == "quadrature":
        return _amp.f00_quadrature(spec, times)
    modes = _spectrum.solve_finite_spectrum(spec)
    return _amp.f00_discrete(modes, modes.weights, times)


# ---------------------------------------------------------------------------
# output format
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv(command: str, spec: OhmicSystemSpec, extras, columns: dict) -> str:
    """Metadata header, then one row per entry of the named ``columns``."""
    d = derive_parameters(spec)
    lines = [
        f"# dressedbath {__version__}",
        f"# command: {command}",
        f"# spec: {_spec_text(spec)}",
        f"# derived: beta={d.beta:.17g} delta={d.delta:.17g} "
        f"regime={classify_regime(spec).kind.value}",
        *(f"# {key}: {value}" for key, value in extras),
        f"# columns: {','.join(columns)}",
        *(",".join(map(_fmt, row)) for row in zip(*columns.values())),
    ]
    return "\n".join(lines) + "\n"


def _grid(times: np.ndarray):
    return ("grid", f"t_max={times[-1]:.17g} samples={times.size}")


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved config and returns (text, exit code)
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: dict) -> tuple[str, int]:
    spec = build_spec(cfg)
    route = cfg.get("route", "finite-n")
    k_max = cfg.get("k_max", 100)
    extras = [("route", route)]
    if route == "finite-n":
        modes = _spectrum.solve_finite_spectrum(spec)
    elif route == "cavity":
        variant = cfg.get("eq11_variant", "rederived")
        modes = _spectrum.solve_cavity_spectrum(spec, k_max=k_max, variant=variant)
        extras += [("k_max", k_max), ("eq11_variant", variant)]
    else:
        regime = cfg.get("regime", "weak")
        modes = _spectrum.approx_small_L_spectrum(spec, k_max=k_max, regime=regime)
        extras += [("k_max", k_max), ("regime", regime)]
    columns = {"r": range(modes.n_modes_total), "omega": modes.frequencies,
               "weight": modes.weights}
    return _csv("spectrum", spec, extras, columns), 0


def cmd_decay(cfg: dict) -> tuple[str, int]:
    spec = build_spec(cfg)
    method = cfg.get("method", "closed")
    times = _time_grid(cfg, spec)
    values = _amplitude(method, spec, times).values
    # prob squares each value on its own: the array expression can differ
    # in the last digit
    columns = {"t": times, "re_f00": values.real, "im_f00": values.imag,
               "prob": [v.real**2 + v.imag**2 for v in values]}
    return _csv("decay", spec, [("method", method), _grid(times)], columns), 0


def cmd_brownian(cfg: dict) -> tuple[str, int]:
    spec = build_spec(cfg)
    prep = _brownian.CoherentPreparation(
        n_bar=cfg.get("n_bar", 1.0), theta=cfg.get("theta", 0.0)
    )
    method = cfg.get("method", "closed")
    times = _time_grid(cfg, spec)
    series = _amplitude(method, spec, times)
    positions = _brownian.classical_path(spec, prep, times, series)
    extras = [
        ("method", method),
        ("preparation", f"n_bar={prep.n_bar:.17g} theta={prep.theta:.17g}"),
        _grid(times),
    ]
    return _csv("brownian", spec, extras, {"t": times, "position": positions}), 0


def cmd_cavity(cfg: dict) -> tuple[str, int]:
    spec = build_spec(cfg)
    regime = cfg.get("regime", "weak")
    variant = cfg.get("eq11_variant", "rederived")
    k_max = cfg.get("k_max", 2000)
    times = _time_grid(cfg, spec)
    modes = _spectrum.solve_cavity_spectrum(spec, k_max=k_max, variant=variant)
    curve = _amp.cavity_survival_series(
        (modes.weights[0], modes.weights[1:]), modes.frequencies, times
    )
    d = derive_parameters(spec)
    bound = _amp.cavity_min_bound(d.delta, regime)
    extras = [
        ("regime", regime),
        ("k_max", k_max),
        ("eq11_variant", variant),
        _grid(times),
        ("summary", f"grid_min={curve.min():.17g}"),
        ("summary", f"missing_weight={1.0 - math.fsum(modes.weights):.17g}"),
        ("summary", f"analytic_min_bound={bound.min_probability:.17g}"),
    ]
    if regime == "strong":
        delta_max = _amp.solve_delta_max("strong")
        length_max = 2.0 * spec.light_speed * delta_max / spec.g
        extras += [
            ("summary", f"delta_max={delta_max:.17g}"),
            ("summary", f"L_max={length_max:.17g}"),
        ]
        if d.delta > delta_max:
            extras.append(("summary", "unphysical: exceeds delta_max"))
    return _csv("cavity", spec, extras, {"t": times, "prob": curve}), 0


def cmd_validate(cfg: dict) -> tuple[str, int]:
    cfg.setdefault("bar_omega", 1.0)
    if "g" not in cfg and "beta" not in cfg:
        cfg["beta"] = 0.3
    if "cavity_L" not in cfg and "delta" not in cfg:
        cfg["delta"] = 0.05
    cfg.setdefault("n_modes", 8)
    cfg.setdefault("light_speed", 1.0)
    report = _oracle.cross_validate(build_spec(cfg))
    return report.to_text(), 0 if report.all_passed else 3


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    for key, kind in _KEYS.items():
        # values stay strings here: resolve_config coerces them like file values
        common.add_argument("--" + key.replace("_", "-"), dest=key,
                            choices=kind if isinstance(kind, tuple) else None)
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dressedbath",
        description="Normal-mode spectra, decay amplitudes, Brownian paths "
        "and cavity survival bounds for a harmonic particle in an ohmic bath.",
    )
    parser.add_argument(
        "--version", action="version", version=f"dressedbath {__version__}"
    )
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
        ("spectrum", cmd_spectrum, "mode frequencies and particle weights"),
        ("decay", cmd_decay, "survival amplitude f00(t) and probability"),
        ("brownian", cmd_brownian, "mean position of a displaced preparation"),
        ("cavity", cmd_cavity, "finite-cavity survival curve and bounds"),
        ("validate", cmd_validate, "cross-route consistency report"),
    ):
        cmd = sub.add_parser(name, parents=[common], help=text)
        cmd.set_defaults(func=func)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    # one line like the error lines, without the source path and line
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command: the only place that writes its output (to --out or
    stdout) and maps its errors to exit codes 1 (input) and 2 (numerical)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            cfg = resolve_config(args)
            text, code = args.func(cfg)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except DressedBathError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
    if cfg.get("out"):
        try:
            with open(cfg["out"], "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg['out']}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
