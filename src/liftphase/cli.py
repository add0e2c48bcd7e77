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
import copy
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import forward, lifting, recovery, signals, synthesis
from .exceptions import (ConfigError, DecompositionFailure, DegenerateSpectrum,
                         GridError, LiftphaseError, NonConvergence, ZeroSignal)

__all__ = ["main"]

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
    """Make the output directory, then write a run's artifacts under
    temporary names and rename them all into place.

    Yields ``stage(name)``, which returns the temporary path at which to
    write artifact ``name``.  When the block completes, each staged file is
    renamed onto its name with :func:`os.replace`; whatever happens, no
    staged file is left behind, so a run that fails leaves no artifact.  A
    run that fails also removes the directories it made, and only those.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    staged = []

    def stage(name: str) -> Path:
        temporary = out_dir / f".{name}.{os.getpid()}.tmp"
        staged.append((temporary, out_dir / name))
        return temporary

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield stage
        for temporary, path in staged:
            os.replace(temporary, path)
        made = []
    finally:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()


#: The config file's layout, with each setting's default.  A file value must
#: have its default's type, and any key not listed here is rejected.  The
#: ``grid`` and ``noise`` sections are the keyword arguments of
#: forward.half_integer_grid and forward.NoiseSpec.  ``grid.preset`` is no
#: setting: it is only checked (see _check_preset).
CONFIG_KEYS = {
    "signal": "gaussian",
    "method": "quadrature",
    "out": "out",
    "grid": dict(forward.PAPER_GRID),
    "noise": {"seed": 0, "level": 0.0},
}


@dataclass(frozen=True)
class _Settings:
    """The resolved config document, in the layout of CONFIG_KEYS, and the
    pipeline objects built from it."""

    document: dict
    signal: signals.Signal
    grid: forward.MeasurementGrid
    noise: forward.NoiseSpec


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


def _build_config(args, preset: dict | None = None) -> _Settings:
    document = copy.deepcopy(CONFIG_KEYS)
    document.update(preset or {})
    if args.config:
        doc = _read_document(args.config, "config")
        _read_keys(doc, document, "")
        _check_preset(doc.get("grid") or {})
    # flags override the file; each sets a key of a section (None: the top)
    for flag, section, key in (
            ("signal", None, "signal"), ("method", None, "method"),
            ("delta", "grid", "delta"), ("noise_level", "noise", "level"),
            ("seed", "noise", "seed"), ("out", None, "out")):
        value = getattr(args, flag)
        if value is not None:
            (document[section] if section else document)[key] = value
    grid = document["grid"]
    signal = signals.get_signal(document["signal"])
    noise = forward.NoiseSpec(**document["noise"])
    # checked from the sizes alone: the lattice of a huge grid would not fit
    lifting.check_matrix_budget(grid["n_frequencies"], grid["n_shifts"],
                                grid["delta"])
    return _Settings(document, signal, forward.half_integer_grid(**grid), noise)


def _read_keys(doc: dict, settings: dict, where: str) -> None:
    """Write one level of a config document into ``settings``, the same
    level of the resolved document; null values count as absent.  An
    unknown key, or a value not of its default's type, raises ConfigError."""
    for key, value in doc.items():
        if where + key == "grid.preset":
            continue  # no setting: _check_preset checks it
        if key not in settings:
            raise ConfigError(f"unknown config key {where + key!r}")
        default = settings[key]
        if isinstance(default, dict):
            if value is not None and not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _read_keys(value or {}, default, f"{where}{key}.")
        elif value is not None:
            forward.check_type(where + key, type(default), value)
            settings[key] = value


def _check_preset(grid_doc: dict) -> None:
    """``grid.preset`` selects nothing: the grid is always built from its
    sizes, whose defaults are the paper grid.  It may say "paper" (then no
    size key may be given) or "custom"."""
    preset = grid_doc.get("preset")
    if preset not in (None, "paper", "custom"):
        raise ConfigError(f"grid.preset must be 'paper' or 'custom', got {preset!r}")
    sizes = [key for key in CONFIG_KEYS["grid"]
             if key != "delta" and key in grid_doc]
    if preset == "paper" and sizes:
        raise ConfigError(f"grid.preset 'paper' fixes the grid size; drop {sizes} "
                          f"or say 'custom'")


def _simulate(cfg: _Settings):
    """The window, and the configured signal measured with it."""
    window = signals.get_window("gaussian")
    return window, forward.measure(cfg.signal, window, cfg.grid,
                                   method=cfg.document["method"],
                                   noise=cfg.noise)


def cmd_simulate(args) -> int:
    cfg = _build_config(args)
    out_dir = Path(cfg.document["out"])
    with _staged(out_dir) as stage:
        _, data = _simulate(cfg)
        write_json(stage("measurement.json"), data.to_dict())
    print(f"wrote {out_dir / 'measurement.json'}")
    print(f"N={data.grid.n_frequencies} K={data.grid.n_shifts} "
          f"b_min={data.values.min():.6e} b_max={data.values.max():.6e}")
    return 0


def _recover_from_data(data: forward.SpectrogramData, window: signals.Window,
                       truth: signals.Signal | None, stage) -> dict:
    spectrum = recovery.recover(data, window)
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
    return {"aligned_relative_error": error, **asdict(diag)}


def cmd_recover(args) -> int:
    data = forward.SpectrogramData.from_dict(
        _read_document(args.measurement, "measurement"))
    window = signals.get_window(data.window)
    truth = None if data.signal is None else signals.get_signal(data.signal)
    with _staged(Path(args.out)) as stage:
        _recover_from_data(data, window, truth, stage)
    return 0


def cmd_experiment(args) -> int:
    preset = EXPERIMENT_PRESETS.get(args.name)
    if preset is None:
        raise ConfigError(f"unknown experiment {args.name!r}; "
                          f"have {sorted(EXPERIMENT_PRESETS)}")
    cfg = _build_config(args, preset=preset)
    out_dir = Path(cfg.document["out"])
    with _staged(out_dir) as stage:
        t0 = time.perf_counter()
        window, data = _simulate(cfg)
        t1 = time.perf_counter()
        metrics = _recover_from_data(data, window, cfg.signal, stage)
        t2 = time.perf_counter()
        write_json(stage("measurement.json"), data.to_dict())
        config = {k: v for k, v in cfg.document.items() if k != "out"}
        write_json(stage("metrics.json"), {"experiment": args.name, **metrics,
                                           "config": config})
    print(f"stage timings: measure {t1 - t0:.2f}s, recover {t2 - t1:.2f}s")
    print(f"artifacts in {out_dir}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftphase",
        description="Recover compactly supported signals from magnitude-only "
                    "windowed-Fourier samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    def measures(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--signal", metavar="NAME",
                       help="catalog signal (gaussian, modulated, zero)")
        p.add_argument("--method", choices=["quadrature", "series"])
        p.add_argument("--delta", type=int)
        p.add_argument("--noise-level", dest="noise_level", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", metavar="DIR")

    p_sim = sub.add_parser("simulate", help="write a measurement file")
    measures(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("recover", help="invert a measurement file")
    p_rec.add_argument("measurement", help="measurement JSON produced by simulate")
    p_rec.add_argument("--out", metavar="DIR", default=CONFIG_KEYS["out"])
    p_rec.set_defaults(func=cmd_recover)

    p_exp = sub.add_parser("experiment", help="run a bundled end-to-end preset")
    p_exp.add_argument("name", help="preset name, e.g. paper-1 or paper-2")
    measures(p_exp)
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
