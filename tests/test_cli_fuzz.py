"""Property test of the CLI: any config document and flags give a documented
exit code, never a traceback, and a failed run leaves no artifact.

Every document fixes a 21-frequency grid, so a run that gets as far as
recovery costs milliseconds."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from liftphase import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ARTIFACTS = {
    "simulate": {"measurement.json"},
    "recover": {"spectrum.json", "reconstruction.csv"},
    "experiment": {"measurement.json", "spectrum.json", "reconstruction.csv",
                   "metrics.json"},
}


def values(valid, invalid):
    """A valid value three times as often as an invalid one, so that many
    documents get past validation."""
    return st.sampled_from(valid * 3 + invalid)


def section(**fields):
    return st.fixed_dictionaries({}, optional=fields)


documents = st.fixed_dictionaries({
    # the default delta, 7, needs 29 frequencies: give one that fits
    "grid": st.fixed_dictionaries({
        "n_frequencies": st.just(21),
        "delta": values([1, 2, 3], [None, 6, 0, -1, 1.5]),
    }, optional={
        "preset": values([None, "custom"], ["paper", "bogus"]),
        "n_shifts": values([1, 2, 5, 7], [0, -3, 2.5, "7"]),
        "shift_spacing": values([0.5 / 7.0, 0.05],
                                [0.2, 0.0, -0.1, float("inf"), "x"]),
    }),
}, optional={
    "signal": values(["gaussian", "modulated"], ["zero", "mystery", 3]),
    "window": values(["gaussian", None], ["boxcar"]),
    "method": values(["series", "quadrature", None], ["exact"]),
    "noise": section(seed=values([0, 7, 2 ** 40, None], [-1, 1.5]),
                     level=values([0.0, 1e-3, 0.5],
                                  [2.0, -1e-3, float("nan")])),
    "recovery": section(
        rank_tol=values([1e-10, 1e-2], [1.0, 0.0, -1.0, "tight"]),
        refine_iterations=values([0, 3, None], [-1, 2.5])),
})

flags = st.lists(st.sampled_from([
    ["--signal", "modulated"], ["--signal", "zero"], ["--signal", "nope"],
    ["--method", "series"], ["--method", "quadrature"], ["--method", "exact"],
    ["--delta", "2"], ["--delta", "9"], ["--delta", "x"],
    ["--noise-level", "1e-3"], ["--noise-level", "-1"], ["--seed", "-4"],
    ["--seed", "3"], ["--window", "boxcar"], ["--unknown"],
]), max_size=2)

commands = st.sampled_from([["simulate"], ["recover"],
                            ["experiment", "paper-1"],
                            ["experiment", "paper-2"],
                            ["experiment", "paper-9"]])


@pytest.fixture(scope="module")
def measurement_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("measured")
    config = out / "config.json"
    config.write_text(json.dumps({"grid": {
        "n_frequencies": 21, "n_shifts": 7, "shift_spacing": 0.5 / 7.0,
        "delta": 3}}))
    assert cli.main(["simulate", "--method", "series", "--config",
                     str(config), "--out", str(out)]) == 0
    return out / "measurement.json"


def run_in_process(argv):
    """(exit code, stderr) of ``cli.main``; argparse exits by SystemExit."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stderr.getvalue()


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(document=documents, command=commands, extra_flags=flags,
                  measured=st.booleans())
def test_any_config_exits_documented_code(measurement_file, document, command,
                                          extra_flags, measured):
    if command == ["recover"]:
        # recover takes the grid, method and noise from its measurement file
        # and rejects them in a config file unless they are left out
        command = ["recover", str(measurement_file)]
        if not measured:
            document = {key: value for key, value in document.items()
                        if key not in ("grid", "method", "noise")}
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "config.json"
        config.write_text(json.dumps(document))
        out = Path(scratch) / "out"
        argv = [*command, "--config", str(config), "--out", str(out),
                *(arg for flag in extra_flags for arg in flag)]
        code, stderr = run_in_process(argv)
        assert code in (0, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_NUMERICAL)
        assert "Traceback" not in stderr
        written = ({p.name for p in out.iterdir()} if out.exists() else set())
        if code == 0:
            assert written == ARTIFACTS[command[0]]
        else:
            assert written == set()
