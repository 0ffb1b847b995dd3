"""The crash contract of run configs: whatever finite number a spec holds,
runner.run returns an exit code or raises ConfigError (exit 2 at the CLI),
and never another exception.

Every spec number is drawn over the finite floats, with +-1e308, the
smallest subnormal 5e-324 and the values just past each rule among them,
on 1D and 2D lattices of depth at most 3, under every suite.
"""
import tempfile

from hypothesis import example, given, settings, strategies as st

from haarlab import runner
from haarlab.runner import ConfigError

EDGES = [1e308, -1e308, 2.0 ** 1023, 5e-324, -5e-324, 0.0, -1.0, 2.0, 300.0, 1000.0, -1000.0]
WILD = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
SEEDS = st.integers(0, 99)


@st.composite
def numbers(draw):
    """A spec number: three times in four in [0, 2], so that many configs
    pass every rule and run, else any finite float or an edge value."""
    return draw(st.floats(0.0, 2.0) if draw(st.integers(0, 3)) else WILD)


@st.composite
def measures(draw):
    kind = draw(st.sampled_from(["uniform", "lognormal", "zero_blocks"]))
    if kind == "uniform":
        return {"type": "uniform", "total": draw(numbers())}
    key = "sigma" if kind == "lognormal" else "fraction"
    return {"type": kind, key: draw(numbers()), "seed": draw(SEEDS)}


@st.composite
def configs(draw):
    """(config, suite): every spec number drawn, few search iterations."""
    if draw(st.booleans()):
        operator = {"type": "multiplier", "alpha": draw(numbers()), "root_alpha": draw(numbers())}
    else:
        operator = {"type": "random_band", "r": draw(st.integers(0, 2)), "seed": draw(SEEDS),
                    "amplitude": draw(numbers()), "root_amplitude": draw(numbers())}
    config = {"lattice": {"dim": draw(st.sampled_from([1, 2])), "top_level": 0,
                          "leaf_level": -draw(st.integers(1, 3))},
              "mu": draw(measures()), "nu": draw(measures()), "operator": operator,
              "r": draw(st.integers(0, 2)), "seed": draw(SEEDS),
              "search": {"iterations": draw(st.integers(0, 4)), "weight_sigma": draw(numbers()),
                         "step": draw(numbers()), "amplitude": draw(numbers())}}
    return config, draw(st.sampled_from(runner.SUITES))


def _config(**sections):
    """A small passing config with some sections replaced."""
    return {"lattice": {"dim": 1, "top_level": 0, "leaf_level": -3},
            "mu": {"type": "lognormal", "sigma": 1.0, "seed": 1},
            "nu": {"type": "zero_blocks", "fraction": 0.25, "seed": 2},
            "operator": {"type": "random_band", "r": 1, "seed": 3}, "r": 1, **sections}


@settings(max_examples=100, deadline=None)
@given(case=configs())
# an amplitude whose range 2a overflows (numpy's OverflowError), initial
# masses that overflow under weight_sigma (MeasureGrid's ValueError), a step
# whose move overflows a mass mid-run, and a fraction outside [0, 1] (exit 0)
@example(case=(_config(operator={"type": "random_band", "r": 1, "seed": 3,
                                 "amplitude": 1e308}), "verify"))
@example(case=(_config(search={"iterations": 1, "weight_sigma": 1000.0}), "search"))
@example(case=(_config(search={"iterations": 40, "step": 1000.0}), "search"))
@example(case=(_config(nu={"type": "zero_blocks", "fraction": 2.0, "seed": 2}), "testing"))
def test_run_returns_an_exit_code_or_raises_config_error(case):
    config, suite = case
    fractions = [m["fraction"] for m in (config["mu"], config["nu"]) if "fraction" in m]
    with tempfile.TemporaryDirectory() as out:
        try:
            code, _ = runner.run(config, out, suite=suite)
        except ConfigError:
            return
    assert code in (0, 1)
    assert all(0 <= f <= 1 for f in fractions), "a fraction outside [0, 1] ran"
