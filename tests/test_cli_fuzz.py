"""Property tests of the CLI: any config document and flags, and any
measurement file, give a documented exit code, never a traceback, and a
failed run leaves no artifact.

Every document fixes a 21-frequency grid, so a run that gets as far as
recovery costs milliseconds."""

import contextlib
import copy
import io
import json
import math
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
                                [0.2, 0.0, -0.1, float("inf"), 1e308, "x"]),
    }),
}, optional={
    "signal": values(["gaussian", "modulated"], ["zero", "mystery", 3]),
    "method": values(["series", "quadrature", None], ["exact"]),
    "noise": section(seed=values([0, 7, 2 ** 40, None], [-1, 1.5]),
                     level=values([0.0, 1e-3, 0.5],
                                  [2.0, -1e-3, float("nan")])),
})

flags = st.lists(st.sampled_from([
    ["--signal", "modulated"], ["--signal", "zero"], ["--signal", "nope"],
    ["--method", "series"], ["--method", "quadrature"], ["--method", "exact"],
    ["--delta", "2"], ["--delta", "9"], ["--delta", "x"],
    ["--noise-level", "1e-3"], ["--noise-level", "-1"], ["--seed", "-4"],
    ["--noise-level", "inf"], ["--noise-level", "nan"],
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
@hypothesis.given(document=documents, command=commands, extra_flags=flags)
# an infinite level on an otherwise valid run reaches the noise draw, which
# overflows unless the level is rejected first
@hypothesis.example(document={"grid": {"n_frequencies": 21, "delta": 3}},
                    command=["simulate"],
                    extra_flags=[["--method", "series"], ["--noise-level", "inf"]])
# a finite spacing whose shift span is not overflows the grid's multiply
@hypothesis.example(document={"grid": {"n_frequencies": 21, "delta": 3,
                                       "shift_spacing": 1e308}},
                    command=["simulate"],
                    extra_flags=[["--method", "series"]])
def test_any_config_exits_documented_code(measurement_file, document, command,
                                          extra_flags):
    with tempfile.TemporaryDirectory() as scratch:
        if command == ["recover"]:
            # recover reads everything from its measurement file and takes
            # no config file
            command = ["recover", str(measurement_file)]
        else:
            config = Path(scratch) / "config.json"
            config.write_text(json.dumps(document))
            command = [*command, "--config", str(config)]
        out = Path(scratch) / "out"
        argv = [*command, "--out", str(out),
                *(arg for flag in extra_flags for arg in flag)]
        code, stderr = run_in_process(argv)
        assert code in (0, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_NUMERICAL)
        assert "Traceback" not in stderr
        written = ({p.name for p in out.iterdir()} if out.exists() else set())
        if code == 0:
            assert written == ARTIFACTS[command[0]]
        else:
            assert written == set()


#: Replacement values for a measurement-file field: wrong types, booleans,
#: null, negatives, NaN, a number past float range, and valid values.
REPLACEMENTS = st.sampled_from([
    None, True, False, -1, 0, 2, 3, 1.5, -0.25, float("nan"), 10 ** 400, "x",
    [], {}, [0.0], {"seed": 1, "level": 1e-3}])
#: The mutated fields; an integer is a list position.  ``extra``,
#: ``grid.detla`` and ``noise.sigma`` are stray keys.
FIELDS = st.sampled_from([
    ("grid",), ("grid", "delta"), ("grid", "shifts"), ("grid", "shifts", 0),
    ("grid", "frequencies", 3), ("method",), ("noise",), ("noise", "seed"),
    ("noise", "level"), ("b",), ("b", 5), ("extra",), ("grid", "detla"),
    ("noise", "sigma"), ("signal",), ("window",)])
#: The keys of the measurement schema, per section.
SCHEMA = {"": {"signal", "window", "grid", "method", "noise", "b"},
          "grid": {"shifts", "frequencies", "delta"},
          "noise": {"seed", "level"}}
MISSING = object()
mutations = st.lists(st.tuples(FIELDS, st.one_of(REPLACEMENTS,
                                                 st.just(MISSING))),
                     min_size=1, max_size=3)


def mutated(document, changes):
    """A copy of the document with each change applied where its path still
    leads to a container; MISSING deletes the key."""
    doc = copy.deepcopy(document)
    for path, value in changes:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        key = path[-1]
        if isinstance(parent, dict):
            if value is MISSING:
                parent.pop(key, None)
            else:
                parent[key] = value
        elif (isinstance(parent, list) and isinstance(key, int)
              and key < len(parent) and value is not MISSING):
            parent[key] = value
    return doc


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= 1.7976931348623157e308)


def is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def well_typed(doc):
    """Every field of the measurement schema has its type: integer delta,
    numeric shifts, frequencies and b, a string method and window if any, a
    string or null signal, and a null noise or one with a non-negative
    integer seed and a numeric level; and no section holds a key the schema
    does not list."""
    grid, noise = doc.get("grid"), doc.get("noise")
    return (set(doc) <= SCHEMA[""]
            and isinstance(grid, dict) and set(grid) <= SCHEMA["grid"]
            and is_integer(grid.get("delta"))
            and all(isinstance(grid.get(key), list)
                    and all(map(is_number, grid[key]))
                    for key in ("shifts", "frequencies"))
            and isinstance(doc.get("b"), list) and all(map(is_number, doc["b"]))
            and isinstance(doc.get("method", ""), str)
            and isinstance(doc.get("window", ""), str)
            and isinstance(doc.get("signal", ""), (str, type(None)))
            and (noise is None or (isinstance(noise, dict)
                                   and set(noise) <= SCHEMA["noise"]
                                   and is_integer(noise.get("seed"))
                                   and noise["seed"] >= 0
                                   and is_number(noise.get("level")))))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(changes=mutations)
# a declared level far past 1 would take the cutoff it sets past 1 uncapped
@hypothesis.example(changes=[(("noise",), {"seed": 0, "level": 1e300})])
def test_any_measurement_file_exits_documented_code(measurement_file, changes):
    document = json.loads(measurement_file.read_text())
    doc = mutated(document, changes)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "measurement.json"
        path.write_text(json.dumps(doc))
        out = Path(scratch) / "out"
        code, stderr = run_in_process(["recover", str(path), "--out", str(out)])
        assert code in (0, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_NUMERICAL)
        assert "Traceback" not in stderr
        written = ({p.name for p in out.iterdir()} if out.exists() else set())
        if code == 0:
            assert well_typed(doc), doc
            assert written == ARTIFACTS["recover"]
        else:
            assert written == set()
