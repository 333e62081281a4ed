"""Input errors of the library: each malformed input raises its exception
type with its message, on paths the rest of the suite does not take."""

import re

import pytest

from conelab.configurations import ConfigurationError, NegativeConfiguration, certified_sw_classes
from conelab.cremona import cremona_equivalent, order
from conelab.enumeration import nine_squares_representations
from conelab.inflation import InflationError, achieve_vertex, alternate_inflate
from conelab.lattice import (
    DivisorClass,
    E,
    H,
    LatticeError,
    T,
    U,
    parse_class,
    rational_surface,
    trivial_ruled,
)

R2 = rational_surface(2)
R3 = rational_surface(3)
RULED = trivial_ruled(1)
NOT_A_RAY = "facet intersection is not a single ray"

CASES = [
    ("rank", lambda: DivisorClass(R2, (1, 0)), LatticeError,
     "coefficient vector of length 2 on rank 3 surface"),
    ("H-on-ruled", lambda: H(RULED), LatticeError, "H lives on rational surfaces only"),
    ("U-on-rational", lambda: U(R2), LatticeError, "U lives on ruled surfaces only"),
    ("T-on-rational", lambda: T(R2), LatticeError, "T lives on ruled surfaces only"),
    ("E-out-of-range", lambda: E(R2, 3), LatticeError, "E3 out of range for k=2"),
    ("order-on-ruled", lambda: order(U(RULED)), LatticeError,
     "ordering applies to rational surfaces"),
    ("cremona-across-surfaces", lambda: cremona_equivalent(H(R2), H(rational_surface(3))),
     LatticeError, "classes on different surfaces"),
    ("curve-on-another-surface",
     lambda: NegativeConfiguration(R2, [E(rational_surface(3), 1)]),
     ConfigurationError, "curve on the wrong surface"),
    ("certified-on-blown-up-ruled", lambda: certified_sw_classes(trivial_ruled(1, 1)),
     ConfigurationError, "certified ruled sets cover minimal surfaces"),
    ("nine-squares-negative-total", lambda: nine_squares_representations(-1), ValueError,
     "total must be non-negative"),
    ("alternate-nonnegative-curve", lambda: alternate_inflate(H(R2), E(R2, 1), H(R2), 2),
     InflationError, "alternating inflation needs two negative classes"),
    ("vertex-no-curves", lambda: achieve_vertex(H(R2), []), InflationError, "no curves supplied"),
    ("vertex-positive-curve", lambda: achieve_vertex(H(R2), [H(R2)]), InflationError,
     "H has positive square"),
    # two null orthogonalized classes that pair non-trivially
    ("vertex-two-null-directions",
     lambda: achieve_vertex(H(R2), [parse_class("H-E1", R2), parse_class("H-E2", R2)]),
     InflationError, NOT_A_RAY),
    # a later curve that pairs with the null direction
    ("vertex-curve-off-the-null-direction",
     lambda: achieve_vertex(H(R2), [parse_class("H-E1", R2), E(R2, 1)]),
     InflationError, NOT_A_RAY),
    ("vertex-zero-start",
     lambda: achieve_vertex(0 * H(R3), [parse_class(c, R3) for c in ("E3", "E1-E2", "H-E1-E2")]),
     InflationError, "projection collapsed to zero; start class is degenerate"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_raises_its_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
