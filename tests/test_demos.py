"""Every demo runs from a checkout and prints exactly its pinned text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])),
}

EXPECTED = {
    "axiom_checker": """\
linear tables on Z_5 with s=2, t=3:
axiom1: pass
axiom1.variant: pass
axiom2: pass
axiom2.variant: pass
axiom3: pass
axiom4: pass
axiom4.variant: pass
axiom5: pass
axiom5.variant: pass

the same tables written out and read back:
tables equal: True
all axioms pass: True

same tables with ur(0,1) corrupted:
axiom1: pass
axiom1.variant: pass
axiom2: pass
axiom2.variant: pass
axiom3: fail [counterexample a=0 b=1 (equation 2)]
axiom4: fail [counterexample a=0 b=2]
axiom4.variant: fail [counterexample a=0 b=1]
axiom5: fail [counterexample a=0 b=0 c=3 (equation 1)]
axiom5.variant: pass

quaternion tables mod 3 (81 elements):
axiom1: pass
axiom1.variant: pass
axiom2: pass
axiom2.variant: fail [counterexample a=k]
axiom3: fail [counterexample a=0 b=k (equation 1)]
axiom4: fail [counterexample a=0 b=k]
axiom4.variant: fail [counterexample a=0 b=k]
axiom5: fail [counterexample a=0 b=0 c=k (equation 1)]
axiom5.variant: pass
""",
    "braid_moves": """\
word:           n=4; s1 s2 s1 v3 -s3 s3
inverse:        n=4; -s3 s3 v3 -s1 -s2 -s1
free reduction: n=4; s1 s2 s1 v3

relator move sites (family, position, direction):
  braid@0+ -> n=4; s2 s1 s2 v3 -s3 s3
  commute@2+ -> n=4; s1 s2 v3 s1 -s3 s3

conjugate by s2:  n=4; s2 s1 s2 s1 v3 -s3 s3 -s2
stabilize with -: n=5; s1 s2 s1 v3 -s3 s3 -s4
destabilize back: n=4; s1 s2 s1 v3 -s3 s3

ad inversion:       n=4; v1 -s1 v1 v1 s1 v1 v1 v3 -s3 v3 v2 -s2 v2 v3 -s3 v3
applied twice:      n=4; s1 s2 s1 v3
original (reduced): n=4; s1 s2 s1 v3
""",
    "gap_invariant": """\
virtual Hopf word: n=2; v1 s1
presentation:
gens a b
rel ur(a,b) = a
rel lr(b,a) = b
braid matrix: LaurentMatrix[t, 1 - s*t; 0, s]
relation matrix: LaurentMatrix[-1 + t, 1 - s*t; 0, -1 + s]
gap: 1 - s - t + s*t

classical trefoil gap: 0

invariance under closure-preserving moves:
start: n=3; s1 s2 s1 s2 -s1 v2   gap: 1 - s - t + s^2*t + s*t^2 - s^2*t^2
  relator braid@0+         -> n=3; s2 s1 s2 s2 -s1 v2  [unchanged]
  relator braid@1-         -> n=3; s1 s1 s2 s1 -s1 v2  [unchanged]
  conjugate s1             -> n=3; s1 s1 s2 s1 s2 -s1 v2 -s1  [unchanged]
  conjugate -s1            -> n=3; -s1 s1 s2 s1 s2 -s1 v2 s1  [unchanged]
  conjugate v1             -> n=3; v1 s1 s2 s1 s2 -s1 v2 v1  [unchanged]
  conjugate s2             -> n=3; s2 s1 s2 s1 s2 -s1 v2 -s2  [unchanged]
  conjugate -s2            -> n=3; -s2 s1 s2 s1 s2 -s1 v2 s2  [unchanged]
  conjugate v2             -> n=3; v2 s1 s2 s1 s2 -s1 v2 v2  [unchanged]
""",
    "kishino": """\
polynomial invariant of the presentation: 0

presentation:
  gens a b c
  rel ul(lr(a,b),ur(b,a)) = b
  rel lr(ul(a,c),ll(c,a)) = c
  rel ll(ur(b,a),lr(a,b)) = ur(ll(c,a),ul(a,c))
reference relations (integral):
  (-3)*a + (1 - 2i - 2k)*b = 0
  (-1 + i + k)*a + (-1 + i + k)*c = 0
  (-4i)*a + (3)*b + (-3)*c = 0
generic linearization matches reference: no
relations mod 3:
  (1 + i + k)*b = 0
  (2 + i + k)*a + (2 + i + k)*c = 0
  (2i)*a = 0
generators forced to zero: a
verdict: nontrivial (rank 8 of 12, dim 4)
""",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_output(name):
    result = subprocess.run(
        [sys.executable, str(_ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == EXPECTED[name]


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (_ROOT / "demos").glob("*.py")) == sorted(EXPECTED)
