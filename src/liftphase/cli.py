"""Command-line entry point: simulate measurements, recover spectra, and run
the bundled end-to-end experiments.

All file artifacts are deterministic for a fixed configuration: floats are
serialized with 17 significant digits, keys are emitted in a fixed order,
and nothing time- or host-dependent is written (stage timings go to stdout
only).  A command writes its artifacts under temporary names and renames
them into place once all of them are written, so a failed run leaves none.

Exit codes: 0 success, 2 configuration or schema error, 3 I/O error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import forward, lifting, recovery, signals, synthesis
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


@contextlib.contextmanager
def _staged(out_dir: Path):
    """Write a run's artifacts under temporary names, then rename them all
    into place.

    Yields ``stage(name)``, which returns the temporary path at which to
    write artifact ``name``.  When the block completes, each staged file is
    renamed onto its name with :func:`os.replace`; whatever happens, no
    staged file is left behind, so a run that fails leaves no artifact.
    """
    staged = []

    def stage(name: str) -> Path:
        temporary = out_dir / f".{name}.{os.getpid()}.tmp"
        staged.append((temporary, out_dir / name))
        return temporary

    try:
        yield stage
        for temporary, path in staged:
            os.replace(temporary, path)
    finally:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)


#: Config-file layout: file key -> ExperimentConfig field, with a nested
#: table per section.  ``grid.preset`` maps to no field (see _check_preset).
#: Any key not listed here is rejected.
CONFIG_KEYS = {
    "signal": "signal",
    "window": "window",
    "method": "method",
    "out": "out_dir",
    "grid": {"preset": None, "n_frequencies": "n_frequencies",
             "n_shifts": "n_shifts", "shift_spacing": "shift_spacing",
             "delta": "delta"},
    "noise": {"seed": "noise_seed", "level": "noise_level"},
    "recovery": {"rank_tol": "rank_tol",
                 "refine_iterations": "refine_iterations"},
}
_GRID_SIZE_KEYS = ("n_frequencies", "n_shifts", "shift_spacing")
#: Keys that describe the measurement.  ``recover`` takes them from its
#: measurement file, so its config file may not set them.
_MEASUREMENT_KEYS = ("signal", "window", "method", "grid", "noise")


@dataclass(frozen=True)
class ExperimentConfig:
    signal: str = "gaussian"
    window: str = "gaussian"
    n_frequencies: int = 61
    n_shifts: int = 11
    shift_spacing: float = 0.5 / 11.0
    delta: int = 7
    method: str = "quadrature"
    noise_seed: int = 0
    noise_level: float = 0.0
    rank_tol: float = 1e-10
    refine_iterations: int = 30
    out_dir: str = "out"

    def grid(self) -> forward.MeasurementGrid:
        return forward.half_integer_grid(self.n_frequencies, self.n_shifts,
                                         self.shift_spacing, self.delta)

    def noise(self) -> forward.NoiseSpec:
        return forward.NoiseSpec(self.noise_seed, self.noise_level)

    def recovery_config(self) -> recovery.RecoveryConfig:
        return recovery.RecoveryConfig(
            rank_tol=self.rank_tol, refine_iterations=self.refine_iterations)

    def to_dict(self) -> dict:
        """The resolved configuration in config-file layout.  The output
        directory is left out: it does not change any result."""
        def section(table):
            return {key: section(target) if isinstance(target, dict)
                    else getattr(self, target)
                    for key, target in table.items()
                    if target not in (None, "out_dir")}
        return section(CONFIG_KEYS)


def _read_document(path, what: str) -> dict:
    """The JSON object in file ``path``, a config or measurement document
    (``what`` names it in messages).  An unreadable file raises _IOFailure
    (exit 3); bad JSON or UTF-8, or a document that is not an object,
    raises ConfigError (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} document must be a JSON object")
    return doc


class _IOFailure(LiftphaseError):
    pass


def _build_config(args, preset: dict | None = None,
                  measures: bool = True) -> ExperimentConfig:
    updates = dict(preset or {})
    if getattr(args, "config", None):
        doc = _read_document(args.config, "config")
        if not measures:
            _reject_measurement_keys(doc)
        updates.update(_read_keys(doc, CONFIG_KEYS, ""))
        _check_preset(doc.get("grid") or {})
    # flags override the file
    for attr, flag in (("signal", "signal"), ("window", "window"),
                       ("method", "method"), ("delta", "delta"),
                       ("noise_level", "noise_level"), ("noise_seed", "seed"),
                       ("out_dir", "out")):
        val = getattr(args, flag, None)
        if val is not None:
            updates[attr] = val
    cfg = replace(ExperimentConfig(), **updates)
    _validate_config(cfg)
    return cfg


def _read_keys(doc: dict, table: dict, where: str) -> dict:
    """Field updates from one level of a config document.  Null values count
    as absent; a key the table does not list, or a value of the wrong type,
    raises ConfigError."""
    updates = {}
    for key, value in doc.items():
        if key not in table:
            raise ConfigError(f"unknown config key {where + key!r}")
        target = table[key]
        if isinstance(target, dict):
            if value is not None and not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            updates.update(_read_keys(value or {}, target, f"{where}{key}."))
        elif target is not None and value is not None:
            forward.check_type(where + key,
                               type(getattr(ExperimentConfig, target)), value)
            updates[target] = value
    return updates


def _reject_measurement_keys(doc: dict) -> None:
    """Raise ConfigError naming the first measurement key the document sets
    (null values count as absent, as in :func:`_read_keys`)."""
    for key in _MEASUREMENT_KEYS:
        value = doc.get(key)
        if isinstance(value, dict):
            value = {sub: v for sub, v in value.items() if v is not None}
            key = f"{key}.{next(iter(value))}" if value else key
        if value is not None and value != {}:
            raise ConfigError(
                f"config key {key!r} does not apply to recover: the "
                f"measurement file fixes what was measured")


def _check_preset(grid_doc: dict) -> None:
    """``grid.preset`` selects nothing: the grid is always built from its
    sizes, whose defaults are the paper grid.  It may say "paper" (then no
    size key may be given) or "custom"."""
    preset = grid_doc.get("preset")
    if preset not in (None, "paper", "custom"):
        raise ConfigError(f"grid.preset must be 'paper' or 'custom', got {preset!r}")
    sizes = [key for key in _GRID_SIZE_KEYS if key in grid_doc]
    if preset == "paper" and sizes:
        raise ConfigError(f"grid.preset 'paper' fixes the grid size; drop {sizes} "
                          f"or say 'custom'")


def _validate_config(cfg: ExperimentConfig) -> None:
    signals.get_signal(cfg.signal)
    signals.get_window(cfg.window)
    cfg.noise()
    cfg.recovery_config()
    lifting.check_matrix_budget(cfg.n_frequencies, cfg.n_shifts, cfg.delta)
    cfg.grid()


def _simulate(cfg: ExperimentConfig):
    """The configured signal and window, and the data measured with them."""
    truth, window = signals.get_signal(cfg.signal), signals.get_window(cfg.window)
    return truth, window, forward.measure(truth, window, cfg.grid(),
                                          method=cfg.method, noise=cfg.noise())


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    _, _, data = _simulate(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _staged(out_dir) as stage:
        write_json(stage("measurement.json"), data.to_dict())
    print(f"wrote {out_dir / 'measurement.json'}")
    print(f"N={data.grid.n_frequencies} K={data.grid.n_shifts} "
          f"b_min={data.values.min():.6e} b_max={data.values.max():.6e}")
    return 0


def _recover_from_data(cfg: ExperimentConfig, data: forward.SpectrogramData,
                       window: signals.Window, truth: signals.Signal | None,
                       stage) -> dict:
    spectrum = recovery.recover(data, window, cfg=cfg.recovery_config())
    reconstruction = synthesis.synthesize(spectrum, synthesis.default_grid())
    error = (None if truth is None
             else synthesis.aligned_relative_error(reconstruction, truth))
    write_json(stage("spectrum.json"), spectrum.to_dict())
    synthesis.write_reconstruction_csv(stage("reconstruction.csv"),
                                       reconstruction, truth)
    diag = spectrum.diagnostics
    print(f"residual={diag.residual:.6e} rank={diag.rank} "
          f"refine_sweeps={diag.refine_sweeps} "
          f"eigen_gap={'n/a' if diag.eigen_gap is None else f'{diag.eigen_gap:.4f}'} "
          f"aligned_error={'n/a' if error is None else f'{error:.6e}'}")
    return {
        "aligned_relative_error": error,
        "residual": diag.residual,
        "eigen_gap": diag.eigen_gap,
        "rank": diag.rank,
        "refine_sweeps": diag.refine_sweeps,
    }


def cmd_recover(args) -> int:
    cfg = _build_config(args, measures=False)
    data = forward.SpectrogramData.from_dict(
        _read_document(args.measurement, "measurement"))
    grid = data.grid
    lifting.check_matrix_budget(grid.n_frequencies, grid.n_shifts, grid.delta)
    window = signals.get_window(data.window)
    truth = None if data.signal is None else signals.get_signal(data.signal)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _staged(out_dir) as stage:
        _recover_from_data(cfg, data, window, truth, stage)
    return 0


def cmd_experiment(args) -> int:
    preset = EXPERIMENT_PRESETS.get(args.name)
    if preset is None:
        raise ConfigError(f"unknown experiment {args.name!r}; "
                          f"have {sorted(EXPERIMENT_PRESETS)}")
    cfg = _build_config(args, preset=preset)
    t0 = time.perf_counter()
    truth, window, data = _simulate(cfg)
    t_measure = time.perf_counter() - t0
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    with _staged(out_dir) as stage:
        t0 = time.perf_counter()
        metrics = _recover_from_data(cfg, data, window, truth, stage)
        t_recover = time.perf_counter() - t0
        write_json(stage("measurement.json"), data.to_dict())
        write_json(stage("metrics.json"), {"experiment": args.name, **metrics,
                                           "config": cfg.to_dict()})
    print(f"stage timings: measure {t_measure:.2f}s, recover {t_recover:.2f}s")
    print(f"artifacts in {out_dir}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftphase",
        description="Recover compactly supported signals from magnitude-only "
                    "windowed-Fourier samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, measures):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        if measures:
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
    common(p_sim, measures=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("recover", help="invert a measurement file")
    p_rec.add_argument("measurement", help="measurement JSON produced by simulate")
    common(p_rec, measures=False)
    p_rec.set_defaults(func=cmd_recover)

    p_exp = sub.add_parser("experiment", help="run a bundled end-to-end preset")
    p_exp.add_argument("name", help="preset name, e.g. paper-1 or paper-2")
    common(p_exp, measures=True)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridError) as exc:
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
