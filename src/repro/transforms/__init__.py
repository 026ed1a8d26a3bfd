"""The program transforms unroll-and-squash builds on (thesis Ch. 3).

* :mod:`~repro.transforms.unroll_and_jam` — unroll-and-jam, a pure
  ``Program -> Program`` function taking the loop nest of the *input*
  program and relocating it internally after cloning;
* :mod:`~repro.transforms.three_address` — three-address lowering of a
  loop body, the form the DFG builder consumes.
"""

from repro.transforms.unroll_and_jam import (  # noqa: F401
    jam_privatized_names, unroll_and_jam,
)
