"""Which checks catch a wrong eigenvalue correction: one h_n^(k), k <= 3,
moved by a relative error, read by the three checks that read h.

`residual_order` reads the states alone, so h rests on `equation_residual`
and `route_equivalence` at every size, and on the contour of
`fd_concordance` at the sizes its 1e-5 gate sees.  Each check is called
directly on the run's own frame, solve and series block."""

import numpy as np
import pytest

import geompert as g
from geompert.corrections import _all_block
from geompert.pipeline import _check_equation, _check_fd, _check_routes
from oracles import manufactured_family, seeded_quadratic_family

SIZES = (1e-10, 1e-8, 1e-6, 1e-4)  # relative to max(1, |h_n^(k)|)
# the smallest error the contour must see; its worst correct deviation is 5e-9
_CONTOUR_SIZE = 1e-4


def _hamiltonian(name):
    if name == "seeded-N16":
        return seeded_quadratic_family(0, 16)
    if name == "dense-N16-t1":
        return manufactured_family(0, 16, 1, True).hamiltonian
    return g.builtin_model(name).to_hamiltonian()


@pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N16", "dense-N16-t1"])
def test_a_wrong_coefficient_fails_a_check_that_reads_h(name):
    ham = _hamiltonian(name)
    frame = g.eigenframe(ham.term(0))
    gens = g.solve_generators(ham, frame, 3)
    states, h = _all_block(gens, 3)
    run = dict(hamiltonian=ham, frame=frame, gens=gens, states=states, order=3, kc=3)
    # the correct series: no false FAIL
    assert all(check(**run, h=h)[0] for check in (_check_equation, _check_routes, _check_fd))
    for n in sorted({0, ham.dim // 2, ham.dim - 1}):
        for k in range(4):
            for size in SIZES:
                wrong = h.copy()
                wrong[k, n] += size * max(1.0, abs(h[k, n]))
                equation, routes = (check(**run, h=wrong)[0]
                                    for check in (_check_equation, _check_routes))
                assert not (equation and routes), (n, k, size)
                if k >= 1 and size >= _CONTOUR_SIZE:
                    assert not _check_fd(**run, h=wrong)[0], (n, k, size)
