"""Golden outputs of the CLI on fractional inputs.

The files under `tests/golden/` were written by the Fraction-at-every-step
kernels; the `poisson` ones by the bracket built from `partial`, `*` and
`+`, before it became one sum over monomial pairs.  The stdout and the
`--json` file of each command must stay byte-identical, so a change of
coefficient arithmetic cannot change an answer, its term order or its
printed form.
"""

from pathlib import Path

import pytest

from formaldisc.cli import main

GOLDEN = Path(__file__).parent / "golden"

FLAGS = ["--d", "1", "--p", "2", "--N", "6"]
LEFT, RIGHT = "1/2*x1^2 + 3/7*y1*h", "x1*y1 - 2/3*y1^2"
# h-free, for the Poisson bracket; F's top term brackets past the cutoff
F = "1/2*x1^2*y1 + 3/7*y1^2 - 5/11*x1^3 + 2/9*x1^2*y1^3"
G = "x1*y1 - 2/3*y1^3 + 7/5*x1^2*y1^2"

COMMANDS = {
    "transport": [
        "darboux", "transport", "--form", "(1+x1) * dx1 /\\ dy1",
        "--a", "x1^2 + 1/2*y1", "--b", "x1*y1 - 3*y1^2", *FLAGS,
    ],
    "weyl_mul": ["weyl", "mul", *FLAGS, LEFT, RIGHT],
    "weyl_comm": ["weyl", "comm", *FLAGS, LEFT, RIGHT],
    "poisson_standard": ["poisson", F, G, *FLAGS],
    "poisson_form": ["poisson", F, G, "--form", "(1+x1) * dx1 /\\ dy1", *FLAGS],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_pinned(name, capsys, tmp_path):
    out_file = tmp_path / f"{name}.json"
    assert main([*COMMANDS[name], "--json", str(out_file)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    assert out_file.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
