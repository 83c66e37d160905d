"""The README quickstart prints what the code prints."""

import re
from pathlib import Path

from eternalprofile import make_params, solve

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_prints_what_a_fresh_solve_prints():
    text = README.read_text(encoding="utf-8")
    beta = re.search(r"print\(result\.beta_star\) +# (\S+)", text).group(1)
    xi0 = re.search(r"print\(sol\.xi0\) +# support endpoint, (\S+)", text).group(1)
    result = solve(make_params(m=2.0, q=0.5, N=1))
    assert (beta, xi0) == (
        repr(result.beta_star), repr(result.final_profile.xi0)
    )
