"""Wall-crossing magnitudes, certificates, and non-extremality witnesses."""

import pytest
from hypothesis import given, settings, strategies as st

from conelab import swcert, verify
from conelab.configurations import certified_sw_classes, certified_sw_families
from conelab.enumeration import distinct_arrangements, exceptional_classes
from conelab.lattice import (
    E,
    H,
    T,
    U,
    canonical_class,
    divisor,
    pair,
    parse_class,
    rational_surface,
    sw_dimension,
    trivial_ruled,
    nontrivial_ruled,
)
from conelab.swcert import (
    CertificateError,
    Decomposition,
    SWCertificate,
    anti_canonical_eight_point_audit,
    non_extremal_witness,
    sw_certificate,
    wall_crossing_magnitude,
)

S2 = rational_surface(2)
RULED2 = trivial_ruled(2)
SECTION = U(RULED2) + T(RULED2)  # certified: dimension 2, witness T, magnitude |1 + 1|^2
SECTION_CERT = SWCertificate(SECTION, 2, T(RULED2), 4)
ZERO_MAGNITUDE = T(RULED2) - U(RULED2)  # e.T = -1, so |1 + e.T|^2 = 0
# 2U+3T = (2U+2T) + T, as non_extremal_witness splits it
SPLIT = ((2 * SECTION, SWCertificate(2 * SECTION, 8, T(RULED2), 9)),
         (T(RULED2), SWCertificate(T(RULED2), 2, T(RULED2), 1)))
SMALL_SURFACES = st.one_of(
    st.builds(rational_surface, st.integers(0, 3)),
    st.builds(trivial_ruled, st.integers(1, 3), st.integers(0, 1)),
    st.builds(nontrivial_ruled, st.integers(1, 3), st.integers(0, 1)),
)


class TestMagnitude:
    def test_rational_is_one(self):
        assert wall_crossing_magnitude(E(S2, 1)) == 1

    def test_ruled_grows_with_fiber_degree(self):
        s = trivial_ruled(2)
        assert wall_crossing_magnitude(parse_class("2U+3T", s)) == 9  # |1+2|^2

    def test_fiber_itself(self):
        s = trivial_ruled(3)
        assert wall_crossing_magnitude(T(s)) == 1  # |1+0|^3


class TestCertificates:
    def test_ruled_section_class(self):
        s = trivial_ruled(2)
        cert = sw_certificate(U(s) + T(s))
        assert isinstance(cert, SWCertificate)
        assert cert.witness == T(s)
        assert cert.dimension == 2
        assert cert.magnitude == 4
        assert cert.revalidate()

    def test_slant_line_with_hyperplane_witness(self):
        cert = sw_certificate(parse_class("H-E1-E2", S2))
        assert isinstance(cert, SWCertificate)
        assert cert.witness == H(S2)
        assert cert.dimension == 0 and cert.magnitude == 1

    def test_positive_dimension_and_negative_dimension(self):
        s1 = rational_surface(1)
        big = parse_class("3H-E1", s1)
        assert sw_dimension(big) == 16  # 8 - (-8) by the pairing oracle
        cert = sw_certificate(big)
        assert isinstance(cert, SWCertificate)
        none = sw_certificate(-1 * H(s1))
        assert isinstance(none, str)
        assert "dimension" in none

    def test_every_exceptional_class_is_certified_by_the_hyperplane(self):
        for k in range(1, 9):
            s = rational_surface(k)
            for e in exceptional_classes(s):
                cert = sw_certificate(e)
                assert isinstance(cert, SWCertificate)
                assert cert.witness == H(s)
                assert cert.magnitude == 1
        # the validity checks trust every certified class as a curve-cone
        # member: each holds a certificate that revalidates
        surfaces = [rational_surface(k) for k in range(9)]
        surfaces += [make(h) for make in (trivial_ruled, nontrivial_ruled) for h in (1, 2, 3)]
        certified = 0
        for s in surfaces:
            for c in certified_sw_classes(s):
                cert = sw_certificate(c)
                assert isinstance(cert, SWCertificate), c
                assert cert.revalidate(), c
                certified += 1
        assert certified == 2714

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(SMALL_SURFACES, st.data())
    def test_every_issued_certificate_revalidates(self, surface, data):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=surface.rank,
                                    max_size=surface.rank))
        cert = sw_certificate(divisor(surface, coeffs))
        assert isinstance(cert, str) or cert.revalidate(), cert


@pytest.mark.parametrize(
    "broken",
    [
        SWCertificate(SECTION, 4, T(RULED2), 4),
        SWCertificate(-2 * H(S2), -2, H(S2), 1),
        SWCertificate(SECTION, 2, T(RULED2) - U(RULED2), 4),
        SWCertificate(SECTION, 2, U(RULED2), 4),
        SWCertificate(SECTION, 2, T(RULED2), 9),
        SWCertificate(ZERO_MAGNITUDE, 2, T(RULED2), 0),
        Decomposition(2 * SECTION + T(RULED2), 2, SPLIT),
        Decomposition(2 * SECTION + T(RULED2), 1,
                      SPLIT[:1] + ((T(RULED2), SWCertificate(T(RULED2), 2, T(RULED2), 2)),)),
        Decomposition(SECTION, 1, ((SECTION, SECTION_CERT),)),
    ],
    ids=["dimension-mismatch", "dimension-negative", "witness-square-negative",
         "witness-does-not-kill", "magnitude-mismatch", "magnitude-zero",
         "sum-not-the-scaled-class", "summand-not-revalidated", "one-summand"],
)
def test_revalidate_rejects_each_broken_fact(broken):
    """Each certificate breaks exactly one fact that revalidate() checks."""
    assert broken.revalidate() is False


def test_the_unbroken_certificates_revalidate():
    assert SECTION_CERT.revalidate()
    assert Decomposition(2 * SECTION + T(RULED2), 1, SPLIT).revalidate()


class TestNonExtremalWitness:
    def test_high_genus_base_splits_off_a_fiber(self):
        s = trivial_ruled(2)
        out = non_extremal_witness(parse_class("2U+3T", s))
        assert isinstance(out, Decomposition)
        parts = [str(p) for p, _ in out.summands]
        assert parts == ["2U+2T", "T"]
        dims = [c.dimension for _, c in out.summands]
        assert dims == [8, 2]
        mags = [c.magnitude for _, c in out.summands]
        assert mags == [9, 1]

    def test_torus_base_certifies_a_multiple(self):
        s = trivial_ruled(1)
        out = non_extremal_witness(parse_class("U+T", s))
        assert isinstance(out, Decomposition)
        assert out.scale == 3
        assert str(out.summands[0][0]) == "3U+2T"
        assert out.revalidate()

    def test_fiber_is_reported_extremal(self):
        s = trivial_ruled(2)
        out = non_extremal_witness(T(s))
        assert isinstance(out, str)

    def test_blowup_multiplicity_above_the_fiber_degree(self):
        s = trivial_ruled(1, k=1)
        out = non_extremal_witness(parse_class("U+3T-2E1", s))
        assert isinstance(out, Decomposition)
        parts = {str(p) for p, _ in out.summands}
        assert parts == {"U+2T-E1", "T-E1"}
        assert all(cert.witness == T(s) for _, cert in out.summands)
        assert out.revalidate()

    def test_nontrivial_bundle(self):
        s = nontrivial_ruled(2)
        out = non_extremal_witness(parse_class("U+2T", s))
        assert isinstance(out, Decomposition)
        assert out.revalidate()

    def test_k_nonnegative_rejected(self):
        s = trivial_ruled(2)
        with pytest.raises(CertificateError):
            non_extremal_witness(parse_class("U-T", s))

    def test_rational_surface_rejected(self):
        with pytest.raises(CertificateError):
            non_extremal_witness(E(S2, 1))

    def test_no_certified_multiple_in_the_scan_window(self):
        # torus base, fiber degree 1, E1-coefficient +3: C.C = -11, so every
        # l C - T with l = 3..12 has negative dimension (-104 at l = 3)
        c = parse_class("U-T+3E1", trivial_ruled(1, k=1))
        with pytest.raises(CertificateError, match="^no certified multiple found in the scan window$"):
            non_extremal_witness(c)


class TestAntiCanonicalAudit:
    def test_audit_passes(self):
        assert anti_canonical_eight_point_audit() is True

    def test_a_wrong_splitting_of_minus_k_fails(self, monkeypatch):
        monkeypatch.setattr(swcert, "E", lambda surface, i: E(surface, 2))
        assert anti_canonical_eight_point_audit() is False

    def test_a_summand_of_positive_genus_fails(self, monkeypatch):
        monkeypatch.setattr(swcert, "adjunction_genus", lambda c: 1)
        assert anti_canonical_eight_point_audit() is False

    def test_an_uncertified_summand_fails(self, monkeypatch):
        monkeypatch.setattr(swcert, "sw_certificate", lambda e: "none")
        assert anti_canonical_eight_point_audit() is False

    @pytest.mark.parametrize("k", range(3, 9))
    def test_the_families_carry_every_pairing_with_minus_k(self, k):
        # the audit pairs -K with one representative per family: -K is fixed
        # by permuting E1..Ek, so each family pairs with it in one value
        s = rational_surface(k)
        anti = -1 * canonical_class(s)
        families = certified_sw_families(s)
        for rep in families:
            assert {pair(anti, c) for c in distinct_arrangements(rep)} == {pair(anti, rep)}, rep
        assert {pair(anti, c) for c in certified_sw_classes(s)} == {pair(anti, c) for c in families}

    def test_a_family_orthogonal_to_minus_k_fails_the_audit(self, monkeypatch):
        # H - E1 - E2 - E3 pairs 0 with -K
        families = certified_sw_families
        monkeypatch.setattr(swcert, "certified_sw_families",
                            lambda s: (*families(s), parse_class("H-E1-E2-E3", s)))
        assert anti_canonical_eight_point_audit() is False
        result = verify.check_sw_certificates()
        assert not result.passed
        assert result.details.startswith("eight-blowup audit: False;")


class TestBrokenInvariants:
    # the decomposition check raises, so it also holds under python -O
    def test_a_decomposition_that_does_not_revalidate_raises(self, monkeypatch):
        s = trivial_ruled(2)
        monkeypatch.setattr(Decomposition, "revalidate", lambda self: False)
        with pytest.raises(CertificateError, match="does not revalidate"):
            non_extremal_witness(parse_class("2U+3T", s))

    def test_an_uncertified_summand_raises(self, monkeypatch):
        monkeypatch.setattr(swcert, "sw_certificate", lambda c: "none")
        with pytest.raises(CertificateError, match=r"summand 2U\+2T not certified: none"):
            non_extremal_witness(parse_class("2U+3T", trivial_ruled(2)))
