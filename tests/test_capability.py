"""A fuzzer for the capability rule: every config the parser accepts is a run
that completes (exit 0 or 1), or one that stops on a reviewed numerical
refusal (exit 2).  It never ends in an internal error, and never in a
refusal that the config alone decides, which parse time must give.

Draws: variant, kind and d; each [operator] key a variant needs or reads, at
the edges of its range and at preset values; k, l and experiment.k up to 3,
experiment.k present or absent; small sets of grid.cutoff and
grid.resolution.  Every run goes in process through `nmhl.cli.main` and
starts no thread or process.

Left out, for the bounded-work item of ROADMAP: keys with no upper bound
whose extremes only cost time, not correctness of the refusal: the levy
`support` and `tol`, and extreme times (`t`, `t_start`, `s`, `eps_start`),
which are drawn at preset values only.
"""

import itertools
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nmhl import NmhlError, parse_config
from nmhl.cli import main

# each optional key is drawn with None, which leaves it out of the config
_K = st.sampled_from([1, 2, 3])
OPERATOR_KEYS = {
    "pure_power": {"k": _K},
    "quadratic_form": {"k": _K, "a_matrix": st.sampled_from(
        [None, None, "2", "1,0.3;0.3,2", "1,0,0;0,2,0;0,0,3"])},
    "levy": {"l": _K,
             "alpha_levy": st.sampled_from([-0.999999, -0.75, -0.5, -0.25, -1e-6]),
             "support": st.sampled_from([None, 0.5, 1.0]),
             "tol": st.sampled_from([None, 1e-8, 1e-6])},
    "fractional": {"k": _K,
                   "alpha_frac": st.sampled_from([1e-6, 0.25, 0.5, 0.75, 0.999999])},
    "perturbed": {"k": _K, "q": st.sampled_from(
        ["0:0.25", "2:0.1", "2:0.1,0:0.25", "1:0.1", "3:-0.1", "1:0.5,2:0.1"])},
}

_EXPERIMENT_K = st.sampled_from([None, 1, 2, 3])
EXPERIMENT_KEYS = {
    "kernel": {"t": st.sampled_from([0.001, 0.01, 0.1, 1.0]),
               "x": st.sampled_from([None, 0.0, 1.0])},
    "ibp": {"moment_path": st.sampled_from([None, "analytic", "quadrature"])},
    "rate": {"y": st.sampled_from([None, 1.0, 5.0]),
             "perturb": st.sampled_from([None, 0.3])},
    "varadhan": {"k": _EXPERIMENT_K, "y": st.sampled_from([None, 1.0, 20.0])},
    "exit": {"k": _EXPERIMENT_K},
    "report": {"fast": st.sampled_from([None, True])},
}

# most kinds read no grid key, and a config that sets one is refused at
# parse time: None is drawn more often, so that more draws run
GRID_KEYS = {"d": st.sampled_from([1, 1, 2]),
             "cutoff": st.sampled_from([None, None, None, 4, 16, 64]),
             "resolution": st.sampled_from([None, None, None, 64, 256])}

#: the refusals a run that parsed may end in, each a numerical fact that
#: shows only once the run computes, with its reason: pattern of the message
#: -> a config line under which parse time decides it instead (or None)
NUMERICAL_REFUSALS = {
    # a grid.cutoff too small for the time: the lattice leaves mass at its
    # edge, and the run names the cutoff the rule would take
    r"CutoffTooSmall: boundary-shell damping .* exceeds threshold": None,
    # a grid.resolution below 2N + 1 of the lattice the rule sized at run
    # time; with grid.cutoff set too, the config alone decides it
    r"ValidationError: resolution M=\d+ must be >= 2N\+1=\d+ to resolve": "cutoff = ",
    # a symbol too flat to damp exp(-t a) below CUTOFF_DAMPING on the largest
    # lattice the caps admit: a fractional power with alpha_frac near 0
    r"ValidationError: no admissible cutoff below \d+ for t=": None,
    # the Gauss-Jacobi rule of a levy symbol did not reach its tolerance, or
    # would need more nodes than its cap at the frequencies the run reaches
    r"QuadratureNonConverged: Gauss-Jacobi rules of \d+ and \d+ nodes differ by": None,
    r"QuadratureNonConverged: the jump quadrature at support \* max \|xi\| = ": None,
    # an exit-mass fit whose points do not lie on a line
    r"FitUnstable: exit-mass fit has R\^2 = ": None,
}


def _reviewed(err: str, text: str) -> bool:
    """Whether the exit-2 stderr `err` of config `text` is a reviewed
    numerical refusal."""
    message = err.strip().splitlines()[-1].split(": ", 1)[-1] if err.strip() else ""
    return any(re.match(pattern, message) and (line is None or line not in text)
               for pattern, line in NUMERICAL_REFUSALS.items())


@st.composite
def configs(draw):
    variant = draw(st.sampled_from(sorted(OPERATOR_KEYS)))
    kind = draw(st.sampled_from(sorted(EXPERIMENT_KEYS)))
    sections = {"operator": {"variant": variant}, "grid": {}, "experiment": {"kind": kind}}
    for section, keys in (("operator", OPERATOR_KEYS[variant]), ("grid", GRID_KEYS),
                          ("experiment", EXPERIMENT_KEYS[kind])):
        for key, values in keys.items():
            value = draw(values)
            if value is not None:
                sections[section][key] = value
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for name, body in sections.items())


_RUN = itertools.count()


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=configs())
def test_a_config_that_parses_runs_or_stops_on_a_reviewed_refusal(text, tmp_path,
                                                                   capsys):
    try:
        parse_config(text)
    except NmhlError:
        return
    run = tmp_path / f"run{next(_RUN)}"
    run.mkdir()
    (run / "run.cfg").write_text(text)
    kind = re.search(r"kind = (\w+)", text).group(1)
    code = main([kind, "--config", str(run / "run.cfg"), "--out", str(run / "out")])
    err = capsys.readouterr().err
    assert "internal error" not in err, text
    assert code in (0, 1, 2), text
    if code == 2:
        assert _reviewed(err, text), (text, err)
        assert not (run / "out").exists(), text
