"""Golden outputs of the CLI, one pair of files per subcommand.

The `transport`, `weyl_mul`, `weyl_comm` and `poisson_*` files were written
by the Fraction-at-every-step kernels on fractional inputs; the `poisson`
ones by the bracket built from `partial`, `*` and `+`, before it became one
sum over monomial pairs.  The `verify_cohomology` and `verify_tower` ones
were written while `is_coboundary`, the d^2 check and the dense blocks still
read the sorted full blocks, before every CE consumer read torus slices.
The other `_d2` ones were written while `Monomial` was a frozen dataclass
that summed its weight on every read, the `_d3` ones while the pair loop and
the substitution still summed on `Monomial` keys, before packed int keys,
and `poisson_form_d2` while `poisson_bracket` summed its own loop over
monomial triples, before it took its products from the pair loop.  The
others were written by the CLI in which each subcommand printed and wrote
`--json` itself, before `main` became its one exit path.  The stdout and the `--json` file of each command
must stay byte-identical, so a change of coefficient arithmetic or of the
CLI's plumbing cannot change an answer, its term order or its printed form.
Only what changes between runs is dropped first: the `duration_s` of a JSON
payload and the time on a report's closing "checks passed" line.
"""

import json
import re
from pathlib import Path

import pytest

from formaldisc.cli import main

GOLDEN = Path(__file__).parent / "golden"

FLAGS = ["--d", "1", "--p", "2", "--N", "6"]
LEFT, RIGHT = "1/2*x1^2 + 3/7*y1*h", "x1*y1 - 2/3*y1^2"
# d=2, where the exponent arithmetic runs per dimension
FLAGS_D2 = ["--d", "2", "--p", "2", "--N", "6"]
LEFT_D2, RIGHT_D2 = "1/2*x1*x2^2 + 3/7*y2*h", "x2*y2 - 2/3*y1^2*x1"
# d=3, where a packed key has the most fields
FLAGS_D3 = ["--d", "3", "--p", "3"]
# h-free, for the Poisson bracket; F's top term brackets past the cutoff
F = "1/2*x1^2*y1 + 3/7*y1^2 - 5/11*x1^3 + 2/9*x1^2*y1^3"
G = "x1*y1 - 2/3*y1^3 + 7/5*x1^2*y1^2"
# d=2, a bivector with off-diagonal, non-constant entries
FORM_D2 = "(1+x1) * dx1 /\\ dy1 + (1+y2) * dx2 /\\ dy2 + x1 * dx1 /\\ dx2"

COMMANDS = {
    "transport": [
        "darboux", "transport", "--form", "(1+x1) * dx1 /\\ dy1",
        "--a", "x1^2 + 1/2*y1", "--b", "x1*y1 - 3*y1^2", *FLAGS,
    ],
    "transport_d2": [
        "darboux", "transport", "--form", "(1+x1) * dx1 /\\ dy1 + dx2 /\\ dy2",
        "--a", "x1*y2 + 1/2*y1", "--b", "x2^2 - 3*y1*y2", *FLAGS_D2,
    ],
    "transport_d3": [
        "darboux", "transport",
        "--form", "(1+x1) * dx1 /\\ dy1 + dx2 /\\ dy2 + dx3 /\\ dy3",
        "--a", "x1*y3 + 1/2*y1", "--b", "x3^2 - 3*y2*y3",
        "--d", "3", "--p", "2", "--N", "6",
    ],
    "weyl_mul": ["weyl", "mul", *FLAGS, LEFT, RIGHT],
    "weyl_comm": ["weyl", "comm", *FLAGS, LEFT, RIGHT],
    "weyl_mul_d2": ["weyl", "mul", LEFT_D2, RIGHT_D2, *FLAGS_D2],
    "weyl_comm_d2": ["weyl", "comm", LEFT_D2, RIGHT_D2, *FLAGS_D2],
    "weyl_mul_d3": [
        "weyl", "mul", "1/2*x1*y3^2 + 3*x3*y2*h", "y1*x3 - 2/5*x2^2*y3",
        *FLAGS_D3, "--N", "8",
    ],
    "weyl_comm_d3": [
        "weyl", "comm", "x1*y3^2 + 2/3*x3*y2*y1", "y1*x3^2 - x2*y2*y3",
        *FLAGS_D3, "--N", "9",
    ],
    "poisson_standard": ["poisson", F, G, *FLAGS],
    "poisson_form": ["poisson", F, G, "--form", "(1+x1) * dx1 /\\ dy1", *FLAGS],
    "poisson_form_d2": [
        "poisson", "x1*y2 + 1/2*y1^2*x2", "x2^2*y1 - 3/5*y2*x1",
        "--form", FORM_D2, "--d", "2", "--N", "6",
    ],
    "weyl_iota": ["weyl", "iota", *FLAGS, LEFT],
    "cohomology_class_omega": ["cohomology", "class", "--which", "omega"],
    "cohomology_class_obstruction": [
        "cohomology", "class", "--which", "obstruction",
        "--d", "1", "--p", "1", "--N", "6",
    ],
    "darboux_normalize": [
        "darboux", "normalize", "--form", "(1+x1) * dx1 /\\ dy1", *FLAGS,
    ],
    "tower_check": ["tower", "check", "--d", "1", "--p", "1", "--N", "4"],
    "cohomology_dims_H_d1_N5": [
        "cohomology", "dims", "--algebra", "H", "--d", "1", "--N", "5",
    ],
    "verify_weyl": [
        "verify", "weyl", "--d", "1", "--p", "1", "--N", "4", "--seed", "5",
    ],
    "verify_cohomology_d1_p1_N6": [
        "verify", "cohomology", "--d", "1", "--p", "1", "--N", "6",
    ],
    "verify_tower_d1_p1_N4": ["verify", "tower", "--d", "1", "--p", "1", "--N", "4"],
}


def _stable(text):
    """`text` without what changes between runs.  A JSON payload, which must
    read as `json.dumps(payload, indent=2)` and a newline, is written again
    without its `duration_s`; a report drops the time off its closing line."""
    if text.startswith("{"):
        payload = json.loads(text)
        assert json.dumps(payload, indent=2) + "\n" == text
        payload.pop("duration_s", None)
        return json.dumps(payload, indent=2) + "\n"
    return re.sub(r" in \d+\.\d\ds\n\Z", "\n", text)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_pinned(name, capsys, tmp_path):
    out_file = tmp_path / f"{name}.json"
    assert main([*COMMANDS[name], "--json", str(out_file)]) == 0
    assert _stable(capsys.readouterr().out) == (GOLDEN / f"{name}.out").read_text()
    assert _stable(out_file.read_text()) == (GOLDEN / f"{name}.json").read_text()
