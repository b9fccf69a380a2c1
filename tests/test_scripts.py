import os
import subprocess
import sys
from pathlib import Path

from regcore.field import QQ
from regcore.poly import parse_poly
from regcore.staircase import MonomialIdeal, adjoint

ROOT = Path(__file__).resolve().parent.parent


def test_worked_example_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import runpy; runpy.run_path('scripts/worked_example.py', "
            "run_name='__main__')")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = [ln for ln in done.stdout.splitlines()
             if ln.startswith("core(I) = ")]
    assert len(lines) == 1
    cols = lines[0][len("core(I) = ["):-1].split("; ")
    gens = [parse_poly(col.strip("()"), QQ) for col in cols]
    assert all(g.is_term for g in gens)
    worked = MonomialIdeal.from_exponents([(3, 0), (1, 1), (0, 2)])
    expected = adjoint(worked).product(worked)  # core = adj(I) * I
    assert MonomialIdeal.from_exponents(
        [next(iter(g.terms)) for g in gens]) == expected
