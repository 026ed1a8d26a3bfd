"""Unit + property tests for unroll-and-jam."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_loop_nests
from repro.errors import LegalityError
from repro.ir import For, ProgramBuilder, U32, run_program, walk_stmts
from repro.ir.randgen import random_squashable_nest
from repro.transforms import unroll_and_jam


def _same_arrays(p1, p2, params=None):
    a = run_program(p1, params=params)
    b = run_program(p2, params=params)
    assert set(a.arrays) == set(b.arrays)
    for name in a.arrays:
        np.testing.assert_array_equal(a.arrays[name], b.arrays[name],
                                      err_msg=f"array {name}")


class TestUnrollAndJam:
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_fig21_preserved(self, fig21, factor):
        nest = find_loop_nests(fig21)[0]
        out = unroll_and_jam(fig21, nest, factor)
        _same_arrays(fig21, out)

    def test_fig41_preserved(self, fig41):
        nest = find_loop_nests(fig41)[0]
        out = unroll_and_jam(fig41, nest, 2)
        a = run_program(fig41, params={"k": 3})
        b = run_program(out, params={"k": 3})
        np.testing.assert_array_equal(a.arrays["out"], b.arrays["out"])

    def test_remainder_tail(self, ):
        # M=10 jam 4 -> main 8 + tail 2
        from tests.conftest import build_fig21
        prog = build_fig21(m=10, n=3)
        nest = find_loop_nests(prog)[0]
        out = unroll_and_jam(prog, nest, 4)
        _same_arrays(prog, out)
        outer_fors = [s for s in out.body.stmts if isinstance(s, For)]
        assert len(outer_fors) == 2

    def test_single_fused_inner(self, fig21):
        nest = find_loop_nests(fig21)[0]
        out = unroll_and_jam(fig21, nest, 2)
        jammed = next(s for s in out.body.stmts if isinstance(s, For))
        inner_fors = [s for s in walk_stmts(jammed.body) if isinstance(s, For)]
        assert len(inner_fors) == 1
        assert len(inner_fors[0].body.stmts) == 4  # 2 stmts x 2 copies

    def test_operator_count_scales(self, fig21):
        from repro.ir import count_nodes
        nest = find_loop_nests(fig21)[0]
        out2 = unroll_and_jam(fig21, nest, 2)
        out4 = unroll_and_jam(fig21, nest, 4)
        j2 = next(s for s in out2.body.stmts if isinstance(s, For))
        j4 = next(s for s in out4.body.stmts if isinstance(s, For))
        assert count_nodes(j4.body) > count_nodes(j2.body)

    def test_dependence_hazard_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,), U32, output=True)
        x = b.local("x", U32)
        b.assign(x, 0)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2):
                b.assign(x, a[i + 1] + 1)   # reads neighbour written below
            a[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_jam(prog, nest, 2)

    def test_scalar_recurrence_rejected(self):
        b = ProgramBuilder("p")
        out_a = b.array("outa", (8,), U32, output=True)
        acc = b.local("acc", U32)
        b.assign(acc, 1)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2):
                b.assign(acc, b.var("acc") + 1)
            out_a[i] = b.var("acc")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_jam(prog, nest, 2)

    def test_inner_bound_depends_on_outer_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U32, output=True)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, i + 1):
                a[i] = a[i] + 1
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_jam(prog, nest, 2)

    @given(seed=st.integers(0, 2000), factor=st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_random_squashable_nests(self, seed, factor):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        out = unroll_and_jam(prog, nest, factor)
        _same_arrays(prog, out)
