"""Golden outputs of the CLI, compared field by field.

Non-float fields, inf and None must match exactly; finite floats must match
within GOLDEN_REL * (1 + |x|), so that another BLAS may change the last bits.
The files in tests/golden/ were written by the commands below, from the repo
root, with PYTHONPATH=src:

    for s in 7 1 11; do python -m cebound.cli verify --dims 1..4 --trials 20 \
        --seed $s > tests/golden/verify_1-4_t20_s$s.json; done
    python -m cebound.cli verify --dims 32..32 --trials 4 --seed 7 \
        > tests/golden/verify_32-32_t4_s7.json
    python -c "from cebound import random_block_state, write_state_json; \
        write_state_json('tests/golden/boundary_3_2.json', \
        random_block_state(3, 2, 3, 'boundary', a0=0.2, eps_q=0.2 / 3))"
    python -m cebound.cli report tests/golden/boundary_3_2.json \
        > tests/golden/report_boundary_3_2.json
    python -m cebound.cli orbit tests/golden/boundary_3_2.json --gamma 1.5 \
        --t-max 2 --steps 8 --out tests/golden/orbit_boundary_3_2.csv

A change that moves one of these outputs on purpose rewrites the file and
lists the move in CHANGES.md.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from cebound.cli import main

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_REL = 1e-12
STATE = GOLDEN / "boundary_3_2.json"


def assert_matches(got, want, where="$"):
    """Recursive field-by-field comparison of parsed JSON or CSV values."""
    if isinstance(want, float) and math.isfinite(want):
        assert isinstance(got, float), (where, got, want)
        assert abs(got - want) <= GOLDEN_REL * (1.0 + abs(want)), (where, got, want)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    else:  # str, bool, int, None, inf
        assert type(got) is type(want) and got == want, (where, got, want)


def _stdout_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _csv_rows(path):
    with open(path) as fh:
        return [
            {key: None if text == "" else float(text) for key, text in row.items()}
            for row in csv.DictReader(fh)
        ]


@pytest.mark.parametrize(
    ("dims", "trials", "seed"),
    [("1..4", 20, 7), ("1..4", 20, 1), ("1..4", 20, 11), ("32..32", 4, 7)],
)
def test_verify_matches_golden(capsys, dims, trials, seed):
    argv = ["verify", "--dims", dims, "--trials", str(trials), "--seed", str(seed)]
    name = f"verify_{dims.replace('..', '-')}_t{trials}_s{seed}.json"
    want = json.loads((GOLDEN / name).read_text())
    assert_matches(_stdout_json(capsys, argv), want)


def test_report_on_a_boundary_state_matches_golden(capsys):
    want = json.loads((GOLDEN / "report_boundary_3_2.json").read_text())
    assert_matches(_stdout_json(capsys, ["report", str(STATE)]), want)


def test_orbit_on_a_boundary_state_matches_golden(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    argv = ["orbit", str(STATE), "--gamma", "1.5", "--t-max", "2", "--steps", "8"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 9 rows to {out}\n"
    want = _csv_rows(GOLDEN / "orbit_boundary_3_2.csv")
    assert_matches(_csv_rows(out), want)
    # the state is singular, so the exact t = 0 rate is +inf, and so its margin
    assert (want[0]["rate"], want[0]["margin"]) == (math.inf, math.inf)


def test_golden_comparison_catches_a_moved_field():
    want = {"a": [1.0, math.inf, None], "b": "x", "n": 3}
    assert_matches({"a": [1.0 + 1e-13, math.inf, None], "b": "x", "n": 3}, want)
    for bad in (
        {"a": [1.0 + 1e-11, math.inf, None], "b": "x", "n": 3},
        {"a": [1.0, 1e308, None], "b": "x", "n": 3},
        {"a": [1.0, math.inf, 0.0], "b": "x", "n": 3},
        {"a": [1.0, math.inf, None], "b": "x", "n": 3.0},
        {"a": [1.0, math.inf], "b": "x", "n": 3},
    ):
        try:
            assert_matches(bad, want)
        except AssertionError:
            continue
        raise AssertionError(f"{bad} passed against {want}")
