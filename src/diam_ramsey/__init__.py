"""Exact solver and verifier for nondecreasing-diameter Ramsey numbers.

f(m1, ..., mt; r) is the least N such that every r-coloring of [1, N]
contains a chain of sets B1 < B2 < ... < Bt (each below the next), with
|Bi| = mi, each set monochromatic, and nondecreasing diameters. The
package computes these values exactly by pruned search, emits and checks
the lower-bound colorings that make the values tight, and machine-checks
the structure lemmas behind the three-set closed form.

Entry points:

* compute_f / SearchConfig: exact values with certificates.
* exists_solution / brute_force_exists: polynomial checker and its
  brute-force reference oracle.
* lower_bound_coloring / verify_avoiding: constructions and verification.
* sweep_lemmas / classify_lemma21 / check_lemma22: structure validation.
* cli.main: the diam-ramsey command-line tool.

The public names are each module's __all__, re-exported here.
"""

from __future__ import annotations

from .checker import *
from .coloring import *
from .constructions import *
from .errors import *
from .lemmas import *
from .search import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *coloring.__all__,
    *checker.__all__,
    *search.__all__,
    *constructions.__all__,
    *lemmas.__all__,
    *errors.__all__,
]
