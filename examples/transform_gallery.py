#!/usr/bin/env python3
"""Chapter 3 gallery: the classical transforms squash builds on.

Shows unroll-and-jam (Fig. 3.3), verified to preserve semantics, and
software pipelining (Fig. 3.4, as a modulo schedule).

Run:  python examples/transform_gallery.py
"""

import numpy as np

from repro.analysis import find_loop_nests
from repro.core import analyze_nest
from repro.hw import modulo_schedule
from repro.ir import I32, ProgramBuilder, program_to_str, run_program
from repro.nimble import ACEV
from repro.transforms import unroll_and_jam


def _simple_2d(m=8, n=4):
    b = ProgramBuilder("fig31")
    a = b.array("a", (m, n), I32, output=True)
    with b.loop("i", 0, m) as i:
        with b.loop("j", 0, n) as j:
            a[i, j] = i + j
    return b.build()


def main() -> None:
    prog = _simple_2d()

    print("=== Fig 3.1: the iteration space source ===")
    print(program_to_str(prog))

    print("=== Fig 3.3: unroll-and-jam by 4 ===")
    nest = find_loop_nests(prog)[0]
    jammed = unroll_and_jam(prog, nest, 4)
    print(program_to_str(jammed))
    assert np.array_equal(run_program(prog).arrays["a"],
                          run_program(jammed).arrays["a"])

    print("=== Fig 3.4: software pipelining (modulo schedule) ===")
    from repro.workloads.simple import build_fg_nest
    fg = build_fg_nest(m=8, n=4)
    fg_nest = find_loop_nests(fg)[0]
    _, _, _, dfg, _, _ = analyze_nest(fg, fg_nest, 1,
                                      delay_fn=ACEV.library.delay)
    sched = modulo_schedule(dfg, ACEV.library)
    print(f"II = {sched.ii} (RecMII {sched.rec_mii}, ResMII {sched.res_mii}); "
          f"schedule:")
    for node in dfg.nodes:
        if node.is_operator:
            t = sched.time[node.nid]
            print(f"  cycle {t}: {node!r}  "
                  f"(modulo slot {t % sched.ii})")
    print("\nconsecutive iterations overlap every"
          f" {sched.ii} cycles — the loop prolog/epilog of Fig. 3.4.")


if __name__ == "__main__":
    main()
