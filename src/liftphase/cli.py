"""Command-line entry point: simulate measurements, recover spectra, and run
the bundled end-to-end experiments.

All file artifacts are deterministic for a fixed configuration: floats are
serialized with 17 significant digits, keys are emitted in a fixed order,
and nothing time- or host-dependent is written (stage timings go to stdout
only).

Exit codes: 0 success, 2 configuration or schema error, 3 I/O error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import forward, recovery, signals, synthesis
from .exceptions import (ConfigError, DecompositionFailure, DegenerateSpectrum,
                         GridError, LiftphaseError, NonConvergence, ZeroSignal)

__all__ = ["main", "ExperimentConfig"]

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

EXPERIMENT_PRESETS = {
    "paper-1": {"signal": "gaussian"},
    "paper-2": {"signal": "modulated"},
}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "null"
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_format_value(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def write_json(path, document: dict) -> None:
    """Deterministic JSON writer: insertion-ordered keys, 17-digit floats."""
    Path(path).write_text(_format_value(document) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ExperimentConfig:
    signal: str = "gaussian"
    window: str = "gaussian"
    grid_preset: str = "paper"
    n_frequencies: int = 61
    n_shifts: int = 11
    shift_spacing: float = 0.5 / 11.0
    delta: int = 7
    method: str = "quadrature"
    noise_seed: int = 0
    noise_level: float = 0.0
    rank_tol: float = 1e-10
    magnitude_floor: float = 1e-6
    power_tol: float = 1e-10
    max_power_iters: int = 50000
    seed: int = 0
    refine_iterations: int = 30
    out_dir: str = "out"

    def grid(self) -> forward.MeasurementGrid:
        if self.grid_preset == "paper":
            grid = forward.paper_grid()
            if self.delta != 7:
                grid = forward.MeasurementGrid(grid.shifts, grid.frequencies,
                                               self.delta)
            return grid
        return forward.half_integer_grid(self.n_frequencies, self.n_shifts,
                                         self.shift_spacing, self.delta)

    def noise(self) -> forward.NoiseSpec | None:
        if self.noise_level <= 0:
            return None
        return forward.NoiseSpec(self.noise_seed, self.noise_level)

    def recovery_config(self) -> recovery.RecoveryConfig:
        return recovery.RecoveryConfig(
            rank_tol=self.rank_tol, magnitude_floor=self.magnitude_floor,
            power_tol=self.power_tol, max_power_iters=self.max_power_iters,
            seed=self.seed, refine_iterations=self.refine_iterations)

    def to_dict(self) -> dict:
        return {
            "signal": self.signal,
            "window": self.window,
            "grid": {
                "preset": self.grid_preset,
                "n_frequencies": self.n_frequencies,
                "n_shifts": self.n_shifts,
                "shift_spacing": self.shift_spacing,
                "delta": self.delta,
            },
            "method": self.method,
            "noise": (None if self.noise_level <= 0 else
                      {"seed": self.noise_seed, "level": self.noise_level}),
            "recovery": {
                "rank_tol": self.rank_tol,
                "magnitude_floor": self.magnitude_floor,
                "power_tol": self.power_tol,
                "max_power_iters": self.max_power_iters,
                "seed": self.seed,
                "refine_iterations": self.refine_iterations,
            },
        }


def _config_from_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


class _IOFailure(LiftphaseError):
    pass


def _build_config(args, preset: dict | None = None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if preset:
        cfg = replace(cfg, **preset)
    file_doc = _config_from_file(args.config) if getattr(args, "config", None) else {}
    grid_doc, noise_doc, recovery_doc = (_section(file_doc, name)
                                         for name in ("grid", "noise", "recovery"))
    mapping = {
        "signal": file_doc.get("signal"),
        "window": file_doc.get("window"),
        "method": file_doc.get("method"),
        "out_dir": file_doc.get("out"),
        "grid_preset": grid_doc.get("preset"),
        "n_frequencies": grid_doc.get("n_frequencies"),
        "n_shifts": grid_doc.get("n_shifts"),
        "shift_spacing": grid_doc.get("shift_spacing"),
        "delta": grid_doc.get("delta"),
        "noise_seed": noise_doc.get("seed"),
        "noise_level": noise_doc.get("level"),
        **recovery_doc,
    }
    updates = {key: value for key, value in mapping.items() if value is not None}
    _check_types(updates)
    # flags override the file
    for attr, flag in (("signal", "signal"), ("window", "window"),
                       ("method", "method"), ("delta", "delta"),
                       ("noise_level", "noise_level"), ("noise_seed", "seed"),
                       ("seed", "seed"), ("out_dir", "out")):
        val = getattr(args, flag, None)
        if val is not None:
            updates[attr] = val
    try:
        cfg = replace(cfg, **updates)
    except TypeError as exc:
        raise ConfigError(f"unknown configuration key: {exc}") from exc
    _validate_config(cfg)
    return cfg


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return section


def _check_types(updates: dict) -> None:
    """Config-file values must have their field's type: strings, integers,
    or finite numbers (booleans are not numbers here)."""
    kinds = {str: "a string", int: "an integer", float: "a finite number"}
    for field in fields(ExperimentConfig):
        if field.name not in updates:
            continue
        value = updates[field.name]
        expected = type(field.default)
        allowed = (int, float) if expected is float else expected
        if (isinstance(value, bool) or not isinstance(value, allowed)
                or (expected is float and not math.isfinite(value))):
            raise ConfigError(
                f"{field.name} must be {kinds[expected]}, got {value!r}")


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.method not in ("quadrature", "series"):
        raise ConfigError(f"method must be quadrature or series, got {cfg.method!r}")
    if cfg.noise_level < 0:
        raise ConfigError("noise level must be >= 0")
    try:
        signals.get_signal(cfg.signal)
        signals.get_window(cfg.window)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.recovery_config()
    cfg.grid()


def _simulate(cfg: ExperimentConfig) -> forward.SpectrogramData:
    data = forward.measure(signals.get_signal(cfg.signal),
                           signals.get_window(cfg.window),
                           cfg.grid(), method=cfg.method, noise=cfg.noise())
    return data


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = _simulate(cfg)
    path = out_dir / "measurement.json"
    write_json(path, data.to_dict())
    print(f"wrote {path}")
    print(f"N={data.grid.n_frequencies} K={data.grid.n_shifts} "
          f"b_min={data.values.min():.6e} b_max={data.values.max():.6e}")
    return 0


def _recover_from_data(cfg: ExperimentConfig, data: forward.SpectrogramData,
                       out_dir: Path) -> dict:
    truth = signals.get_signal(cfg.signal)
    window = signals.get_window(cfg.window)
    spectrum = recovery.recover(data, window, cfg=cfg.recovery_config())
    reconstruction = synthesis.synthesize(spectrum, synthesis.default_grid())
    error = synthesis.aligned_relative_error(reconstruction, truth)
    # every stage that can fail has run, so no partial artifact is left
    write_json(out_dir / "spectrum.json", spectrum.to_dict())
    synthesis.write_reconstruction_csv(out_dir / "reconstruction.csv",
                                       reconstruction, truth)
    diag = spectrum.diagnostics
    print(f"residual={diag.residual:.6e} rank={diag.rank} "
          f"eigen_gap={'n/a' if diag.eigen_gap is None else f'{diag.eigen_gap:.4f}'} "
          f"aligned_error={error:.6e}")
    return {
        "aligned_relative_error": error,
        "residual": diag.residual,
        "eigen_gap": diag.eigen_gap,
        "rank": diag.rank,
    }


def cmd_recover(args) -> int:
    cfg = _build_config(args)
    try:
        data = forward.SpectrogramData.load(args.measurement)
    except OSError as exc:
        raise _IOFailure(f"cannot read measurement file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"measurement file is not valid JSON: {exc}") from exc
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _recover_from_data(cfg, data, out_dir)
    return 0


def cmd_experiment(args) -> int:
    preset = EXPERIMENT_PRESETS.get(args.name)
    if preset is None:
        raise ConfigError(f"unknown experiment {args.name!r}; "
                          f"have {sorted(EXPERIMENT_PRESETS)}")
    cfg = _build_config(args, preset=preset)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    data = _simulate(cfg)
    t_measure = time.perf_counter() - t0
    write_json(out_dir / "measurement.json", data.to_dict())

    t0 = time.perf_counter()
    metrics = _recover_from_data(cfg, data, out_dir)
    t_recover = time.perf_counter() - t0

    write_json(out_dir / "metrics.json", {
        "experiment": args.name,
        "aligned_relative_error": metrics["aligned_relative_error"],
        "residual": metrics["residual"],
        "eigen_gap": metrics["eigen_gap"],
        "rank": metrics["rank"],
        "config": cfg.to_dict(),
    })
    print(f"stage timings: measure {t_measure:.2f}s, recover {t_recover:.2f}s")
    print(f"artifacts in {out_dir}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftphase",
        description="Recover compactly supported signals from magnitude-only "
                    "windowed-Fourier samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--signal", metavar="NAME",
                       help="catalog signal (gaussian, modulated, zero)")
        p.add_argument("--window", metavar="NAME",
                       help="catalog window (gaussian)")
        p.add_argument("--method", choices=["quadrature", "series"])
        p.add_argument("--delta", type=int)
        p.add_argument("--noise-level", dest="noise_level", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", metavar="DIR")

    p_sim = sub.add_parser("simulate", help="write a measurement file")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("recover", help="invert a measurement file")
    p_rec.add_argument("measurement", help="measurement JSON produced by simulate")
    common(p_rec)
    p_rec.set_defaults(func=cmd_recover)

    p_exp = sub.add_parser("experiment", help="run a bundled end-to-end preset")
    p_exp.add_argument("name", help="preset name, e.g. paper-1 or paper-2")
    common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (_IOFailure, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NonConvergence, DecompositionFailure, DegenerateSpectrum,
            ZeroSignal) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
