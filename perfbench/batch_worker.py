"""The ``recover-batch`` process: one interpreter, warm system cache.

    python3 perfbench/batch_worker.py --seed N --seconds S [--smoke]
        [--setup-only] [--spans PATH]

Set-up imports liftphase, builds the window, generates the clean inputs and
pays the cold factorization of the lifted system, then prints one ``ready``
JSON line.  Without ``--setup-only`` it then runs epochs for about
``--seconds`` and prints one ``done`` JSON line with per-operation results.
With ``--spans`` set-up is traced and epochs alternate untraced and traced,
so the tracing overhead is measured in the same process.

Inputs are series measurements of ``gaussian`` and ``modulated`` on the
paper grid.  The clean ones are generated in set-up and recovered in every
epoch, so their outputs must repeat byte for byte.  Each epoch adds
``DRAWS`` fresh seeded multiplicative-noise draws per signal at each of
``NOISE_LEVELS``, generated before the epoch and outside its timing
(traced epochs reuse the draws of the untraced epoch before them).  Fresh
draws matter: a few noisy inputs make the power iteration run ten times
longer, and a fixed handful of draws would make a run's timings depend on
whether its seed happened to pick one.  Even with fresh draws, one draw
per epoch left the median cost of a run's gaussian draws at 1e-3 varying
by a factor of two between seeds, and with it op_p50_s; two per epoch
put the median operation among the cheaper noisy ones.  The noise seeds
come from ``--seed`` alone, and liftphase receives only the generated
``SpectrogramData``.  Each operation is ``recover`` with demo 04's coupling
``rank_tol = max(1e-10, 10 * level)``, then ``synthesize`` and
``aligned_relative_error``.
"""

import argparse
import contextlib
import hashlib
import json
import math
import random
import sys
import time

from tracer import Tracer

SIGNALS = ("gaussian", "modulated")
NOISE_LEVELS = (1e-4, 1e-3)
DRAWS = 2
#: Error bounds on series data.  Clean paper-grid errors are 7.5e-8
#: (gaussian) and 1.4e-5 (modulated).  Over 30 noise draws per level the
#: largest error seen was 1.05e-2, so noisy operations are held to
#: acceptance criterion 2's 5e-2.
CLEAN_BOUND = {"gaussian": 1e-6, "modulated": 1e-4}
NOISY_BOUND = 5e-2
#: The tiny smoke grid (N=21, K=7, delta=3) cannot resolve the modulated
#: signal (clean error 0.53); smoke bounds only catch a broken code path.
SMOKE_BOUND = {"gaussian": 5e-2, "modulated": 1.0}


class Inputs:
    """Seeded measurement inputs; liftphase sees only the SpectrogramData."""

    def __init__(self, seed, smoke, forward, signals, window, grid):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.forward, self.signals = forward, signals
        self.window, self.grid = window, grid
        self.clean = [self._make(name, 0.0) for name in SIGNALS]

    def _make(self, name, level):
        noise = None
        if level > 0.0:
            noise = self.forward.NoiseSpec(self.rng.randrange(2 ** 32), level)
        data = self.forward.measure(self.signals.get_signal(name), self.window,
                                    self.grid, method="series", noise=noise)
        bound = (SMOKE_BOUND[name] if self.smoke else
                 NOISY_BOUND if level > 0.0 else CLEAN_BOUND[name])
        return {"signal": name, "level": level,
                "noise_seed": None if noise is None else noise.seed,
                "bound": bound, "data": data}

    def epoch(self):
        """The clean inputs plus ``DRAWS`` fresh noise draws per signal and
        level."""
        return self.clean + [self._make(name, level) for name in SIGNALS
                             for level in NOISE_LEVELS for _ in range(DRAWS)]


def describe(item) -> dict:
    return {k: v for k, v in item.items() if k != "data"}


def run_operation(item, window, points, recovery, signals, synthesis):
    """One timed operation; returns (error, digest of the outputs)."""
    cfg = recovery.RecoveryConfig(rank_tol=max(1e-10, 10.0 * item["level"]))
    spectrum = recovery.recover(item["data"], window, cfg=cfg)
    reconstruction = synthesis.synthesize(spectrum, points)
    error = synthesis.aligned_relative_error(
        reconstruction, signals.get_signal(item["signal"]))
    digest = hashlib.sha256(spectrum.f_hat.tobytes()
                            + reconstruction.values.tobytes()).hexdigest()
    return error, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    tracer = Tracer()
    with tracer.span("startup.import"):
        from liftphase import forward, recovery, signals, synthesis
    if args.spans:
        tracer.install()
    with tracer.span("bench.setup"):
        window = signals.get_window("gaussian")
        grid = (forward.half_integer_grid(21, 7, 0.5 / 7.0, 3) if args.smoke
                else forward.paper_grid())
        points = synthesis.default_grid()
        inputs = Inputs(args.seed, args.smoke, forward, signals, window, grid)
        recovery.cached_system(window, grid).factorization
    print(json.dumps({"event": "ready",
                      "clean_inputs": [describe(item) for item in inputs.clean]}),
          flush=True)
    if args.setup_only:
        return 0

    ops, epochs, digests = [], [], {}
    start = time.perf_counter()
    while True:
        traced = bool(args.spans) and len(epochs) % 2 == 1
        tracer.uninstall()
        if not traced:
            batch = inputs.epoch()
        else:
            tracer.install()
        span = tracer.span if traced else (lambda name: contextlib.nullcontext())
        epoch_start = time.perf_counter()
        with span("bench.epoch"):
            for item in batch:
                reason = error = None
                t0 = time.perf_counter()
                try:
                    with span("bench.operation"):
                        error, digest = run_operation(item, window, points,
                                                      recovery, signals,
                                                      synthesis)
                except Exception as exc:  # a failed operation is counted, not fatal
                    reason = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
                key = (item["signal"], item["level"], item["noise_seed"])
                if reason is None:
                    if not (math.isfinite(error) and error <= item["bound"]):
                        reason = f"aligned error {error:.3e} above {item['bound']:.0e}"
                    elif digests.setdefault(key, digest) != digest:
                        reason = "outputs differ from an earlier recovery of this input"
                ops.append({**describe(item), "epoch": len(epochs),
                            "traced": traced, "wall_s": wall, "error": error,
                            "ok": reason is None, "reason": reason})
        epochs.append({"traced": traced,
                       "wall_s": time.perf_counter() - epoch_start})
        elapsed = time.perf_counter() - start
        mean_epoch = elapsed / len(epochs)
        enough = len(epochs) >= (2 if args.spans else 1)
        if enough and elapsed + mean_epoch > args.seconds:
            break
    tracer.uninstall()
    if args.spans:
        tracer.dump(args.spans)
    print(json.dumps({"event": "done", "epochs": epochs, "ops": ops}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
