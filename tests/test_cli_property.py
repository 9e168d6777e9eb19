"""The CLI's contract for any config: exit code 0, 1 or 2, never a
traceback, and strict JSON on standard output whenever it exits 0."""

import contextlib
import io
import json
import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from dbardisk.cli import main

# random configs may overflow on the way to a clean exit 1; the contract
# here is the exit code and the output, not the absence of NumPy warnings
pytestmark = pytest.mark.filterwarnings("default::RuntimeWarning")

CLI_ACTIONS = ("energy", "critical", "index", "certify", "levi", "f4-family", "cutoff")

junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                 st.floats(allow_nan=True, allow_infinity=True),
                 st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=3))


def mostly(valid, invalid=junk):
    """valid values, and one draw in eight from invalid."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 0 else valid)


term = st.fixed_dictionaries({"zp": st.integers(0, 2), "zq": st.integers(0, 2),
                              "re": mostly(st.floats(-2, 2))},
                             optional={"im": mostly(st.floats(-2, 2))})
map_spec = mostly(st.one_of(
    st.sampled_from(["f1", "f2", "f3", "f4"]),
    st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
        "n": mostly(st.just(n)),
        "coords": mostly(st.lists(st.lists(term, max_size=2), min_size=n,
                                  max_size=n))}))),
    st.one_of(st.just("f9"), junk))
domain_spec = mostly(st.one_of(
    st.sampled_from(["ball4", "cylinder_x", "weak_rank_one"]),
    st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
        "n": mostly(st.just(n)),
        "terms": st.lists(st.fixed_dictionaries({
            "exponents": mostly(st.lists(st.integers(0, 2), min_size=2 * n,
                                         max_size=2 * n)),
            "coef": mostly(st.floats(-2, 2))}), max_size=4)}))),
    st.one_of(st.just("nope"), junk))
# grids stay small: at most 24 x 64 nodes
config = st.fixed_dictionaries({"map": map_spec, "domain": domain_spec}, optional={
    "grid": mostly(st.tuples(st.integers(4, 24), st.integers(4, 32).map(lambda t: 2 * t))
                   .map(list),
                   st.one_of(st.lists(st.one_of(st.integers(-2, 8), junk), max_size=3),
                             junk)),
    "basis_size": mostly(st.integers(1, 12)),
    "k": mostly(st.integers(1, 3)),
    "h": mostly(st.floats(1e-4, 0.2), st.one_of(st.floats(-0.1, 1.5), junk)),
    "eps_list": mostly(st.lists(st.floats(1e-5, 0.5), min_size=1, max_size=3),
                       st.one_of(st.lists(st.floats(-0.5, 1.5), max_size=2), junk)),
    "tolerances": mostly(st.just({}), st.one_of(st.dictionaries(
        st.sampled_from(["tol_h", "tol_b", "tol_holo", "tol_pc", "tol_neg_rel", "tol_x"]),
        mostly(st.floats(1e-12, 1e-3)), max_size=2), junk)),
    "seed": mostly(st.integers(0, 2**31)),
    "deterministic": mostly(st.booleans()),
    "family": mostly(st.none(), st.one_of(st.dictionaries(
        st.sampled_from(["sigma", "phi"]), junk, max_size=2), junk)),
})


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(action=st.sampled_from(CLI_ACTIONS), cfg=config)
def test_cli_exits_cleanly_on_any_config(action, cfg):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([action, "--config", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error:", "refusal:")), lines
