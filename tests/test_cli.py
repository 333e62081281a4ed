"""End-to-end CLI coverage: flags, files, JSON round trips, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conelab
from conelab import cones
from conelab.cli import main, parse_surface
from conelab.cones import ConeError
from conelab.lattice import ParseError, parse_class, rational_surface, trivial_ruled

# the benchmark's reference output of `verify-paper --json`, read here and never written
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "verify-paper.json"
FILE = "FILE"  # an argument replaced by the path of a JSON document the test writes

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSurfaceLiterals:
    def test_forms(self):
        assert parse_surface("rational:k=3") == rational_surface(3)
        assert parse_surface("ruled:h=2,k=1") == trivial_ruled(2, 1)
        assert parse_surface("nontrivial-ruled:h=1").kind == "nontrivial_ruled"

    def test_bad_kind(self):
        with pytest.raises(ParseError):
            parse_surface("weird:k=1")


class TestEnumerate:
    def test_exceptional_two_blowups(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--square=-1")
        assert code == 0
        assert sorted(out.split()) == ["E1", "E2", "H-E1-E2"]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--square=-1", "--json")
        data = json.loads(out)
        s2 = rational_surface(2)
        classes = {parse_class(t, s2) for t in data["classes"]}
        assert len(classes) == 3

    def test_zero_square_families(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "8", "--square", "0", "--families")
        assert code == 0
        assert len(out.strip().splitlines()) == 15

    def test_exceptional_families(self, capsys):
        # the default square -1 honours --families: E1 and H-E1-E2 up to
        # permuting the E's on three blowups
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--families")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--k", "3", "--square=-1")
        _, second, _ = run(capsys, "enumerate", "--k", "3", "--square=-1")
        assert first == second


class TestSquares:
    def test_eighteen(self, capsys):
        code, out, _ = run(capsys, "squares", "--total", "18")
        assert code == 0
        assert "count: 3" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "squares", "--total", "36", "--json")
        data = json.loads(out)
        assert len(data["representations"]) == 5


class TestCremona:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "cremona", "reduce", "--class", "2H-E1-E2-E3", "--k", "3")
        assert code == 0 and "reduced form: H" in out

    def test_reduce_cycle_json(self, capsys):
        code, out, _ = run(capsys, "cremona", "reduce", "--class", "E1", "--k", "3", "--json")
        assert json.loads(out)["outcome"] == "cycle"

    def test_equiv(self, capsys):
        code, out, _ = run(capsys, "cremona", "equiv", "2H-E1-E2-E3", "H", "--k", "3")
        assert code == 0 and "equivalent" in out


class TestCone:
    def test_dual(self, capsys):
        code, out, _ = run(capsys, "cone", "dual", "--rays", "E1,E2,H-E1-E2", "--k", "2")
        assert code == 0
        assert set(out.split()) == {"H", "H-E1", "H-E2"}

    def test_dual_from_file(self, capsys, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({
            "surface": {"kind": "rational", "k": 2},
            "rays": ["-H+2E1", "E2", "H-E1-E2"],
        }))
        code, out, _ = run(capsys, "cone", "dual", "--rays-file", str(path))
        assert code == 0
        assert set(out.split()) == {"2H-E1", "H-E1", "2H-E1-E2"}

    def test_ksymp(self, capsys):
        code, out, _ = run(capsys, "cone", "ksymp", "--k", "3", "--json")
        data = json.loads(out)
        assert data["corners_ok"] and len(data["corners"]) == 5

    def test_paper_signs(self, capsys):
        code, out, _ = run(capsys, "cone", "dual", "--rays", "E1,E2,H-E1-E2",
                           "--k", "2", "--paper-signs")
        assert "(1; 1, 0)" in out

    def test_dual_json_with_lineality(self, capsys):
        # facets are the normalised input rays, lineality the dual's
        code, out, _ = run(capsys, "cone", "dual", "--rays", "E1,-E1,E2", "--k", "2", "--json")
        assert code == 0
        assert out == (
            '{"surface": {"kind": "rational", "k": 2}, "rays": ["-E2"], '
            '"facets": ["-E1", "E2", "E1"], "lineality": ["H"]}\n'
        )


class TestNefThreshold:
    def test_plane(self, capsys):
        code, out, _ = run(capsys, "nef-threshold", "--omega", "H", "--curves", "H", "--k", "0")
        assert code == 0 and out.strip() == "1/3"

    def test_error_exit(self, capsys):
        code, _, err = run(capsys, "nef-threshold", "--omega", "H-E1",
                           "--curves=-H+2E1", "--k", "2")
        assert code == 1 and "nef" in err


FOUR_CURVES = {"surface": {"kind": "rational", "k": 3},
               "curves": ["E3", "E2-E3", "H-E1-E2-E3", "-H+2E1-E2"]}


class TestConfigCommands:
    @pytest.fixture
    def cfg_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(FOUR_CURVES))
        return str(path)

    def test_validate(self, capsys, cfg_file):
        code, out, _ = run(capsys, "config", "validate", cfg_file)
        assert code == 0
        assert out.count("pass") == 3

    def test_validate_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "surface": {"kind": "rational", "k": 2},
            "curves": ["E1", "E2"],
        }))
        code, out, _ = run(capsys, "config", "validate", str(path))
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("curves", [[], ["E1"]])
    def test_validate_rejects_the_zero_class(self, capsys, tmp_path, curves):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "surface": {"kind": "rational", "k": 1},
            "curves": curves,
            "extra_square_zero": ["0"],
        }))
        code, out, err = run(capsys, "config", "validate", str(path))
        assert (code, out) == (1, "")
        assert err == "error: 0 is not a square-zero class here\n"

    @pytest.mark.parametrize(
        "document,err",
        [
            ({"surface": {"kind": "rational", "k": 2}, "curves": ["1/2E1-1/2E2", "E2"]},
             "error: curve 1/2E1-1/2E2 is not integral\n"),
            ({"surface": {"kind": "rational", "k": 2}, "curves": ["E1", "E1"]},
             "error: duplicate curve E1\n"),
            ({"surface": {"kind": "trivial_ruled", "h": 1}, "curves": ["U-T"],
              "extra_square_zero": ["1/2T"]},
             "error: square-zero class 1/2T is not integral\n"),
            ({"surface": {"kind": "rational", "k": 2}, "curves": ["E1"],
              "extra_square_zero": ["H-E1", "H-E1"]},
             "error: duplicate square-zero class H-E1\n"),
        ],
        ids=["fractional-curve", "duplicate-curve", "fractional-square-zero",
             "duplicate-square-zero"],
    )
    def test_validate_rejects_a_bad_configuration(self, capsys, tmp_path, document, err):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert run(capsys, "config", "validate", str(path)) == (1, "", err)

    def test_validate_empty_plane(self, capsys, tmp_path):
        path = tmp_path / "plane.json"
        path.write_text(json.dumps({"surface": {"kind": "rational", "k": 0}, "curves": []}))
        code, out, _ = run(capsys, "config", "validate", str(path))
        assert code == 0
        assert "p2: pass -- witness H\n" in out

    def test_blowdown(self, capsys, cfg_file):
        code, out, _ = run(capsys, "config", "blowdown", cfg_file, "--at", "E3", "--json")
        data = json.loads(out)
        assert set(data["curves"]) == {"-H+2E1-E2", "E2", "H-E1-E2"}

    def test_catalog(self, capsys):
        code, out, _ = run(capsys, "config", "catalog", "cp2+3", "--n", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 12

    def test_catalog_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "config", "catalog", "cp2+2", "--n", "0", "--json")
        entries = json.loads(out)
        assert len(entries) == 2
        s2 = rational_surface(2)
        for entry in entries:
            for text in entry["curves"]:
                parse_class(text, s2)

    def test_inflate(self, capsys, cfg_file):
        code, out, _ = run(capsys, "inflate", "--config", cfg_file,
                           "--start", "11H-7E1-2E2-E3", "--json")
        data = json.loads(out)
        assert code == 0
        rays = {rec["ray"] for rec in data["achieved"]}
        assert rays == {"H-E1", "2H-E1", "3H-2E1-E2", "5H-3E1-E2-E3"}

    def test_inflate_reaches_the_fiber_ray(self, capsys, tmp_path):
        path = tmp_path / "ruled.json"
        path.write_text(json.dumps({
            "surface": {"kind": "trivial_ruled", "h": 1},
            "curves": ["U-T"],
            "extra_square_zero": ["T"],
        }))
        code, out, _ = run(capsys, "inflate", "--config", str(path), "--start", "U+3T")
        assert code == 0
        assert "T: reached T via none (light-cone limit)\n" in out

    def test_inflate_trace_json_is_one_document(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "surface": {"kind": "rational", "k": 2},
            "curves": ["-H+2E1-E2", "E2", "H-E1-E2"],
        }))
        code, out, _ = run(capsys, "inflate", "--config", str(path), "--start", "8H-5E1-E2",
                           "--ray", "3H-2E1-E2", "--trace", "6", "--json")
        data = json.loads(out)
        assert code == 0
        assert [rec["ray"] for rec in data["achieved"]] == ["3H-2E1-E2"]
        assert data["alternating"] == {"odd": ["2", "0", "0"], "even": ["0", "0", "0"]}

    def test_inflate_single_ray(self, capsys, cfg_file):
        code, out, _ = run(capsys, "inflate", "--config", cfg_file,
                           "--start", "11H-7E1-2E2-E3", "--ray", "H-E1")
        assert code == 0 and "light-cone limit" in out


INFLATE_CONFIGS = {
    "two": {"surface": {"kind": "rational", "k": 2}, "curves": ["-H+2E1-E2", "E2", "H-E1-E2"]},
    "trivial": {"surface": {"kind": "trivial_ruled", "h": 1}, "curves": ["U-T"],
                "extra_square_zero": ["T"]},
    "nontrivial": {"surface": {"kind": "nontrivial_ruled", "h": 1}, "curves": ["U-T"],
                   "extra_square_zero": ["T"]},
    "round": {"surface": {"kind": "rational", "k": 2}, "curves": ["E1"]},
}

_TWO_TEXT = (
    "H-E1: reached H-E1 via none (light-cone limit)\n"
    "2H-E1: reached 22/3H-11/3E1 via 1/4 along -H+2E1-E2, 5/3 along -1/4H+1/2E1+3/4E2\n"
    "3H-2E1-E2: reached 39/4H-13/2E1-13/4E2 via 1/4 along -H+2E1-E2, 2 along H-E1-E2\n"
)
_TWO_JSON = (
    '{"start": "8H-5E1-E2", "achieved": ['
    '{"ray": "H-E1", "result": "H-E1", "steps": [], "light_cone_limit": true}, '
    '{"ray": "2H-E1", "result": "22/3H-11/3E1", "steps": [["-H+2E1-E2", "1/4"], '
    '["-1/4H+1/2E1+3/4E2", "5/3"]], "light_cone_limit": false}, '
    '{"ray": "3H-2E1-E2", "result": "39/4H-13/2E1-13/4E2", "steps": [["-H+2E1-E2", "1/4"], '
    '["H-E1-E2", "2"]], "light_cone_limit": false}]}\n'
)
_TWO_TRACE_JSON = (
    '{"start": "8H-5E1-E2", "achieved": ['
    '{"ray": "3H-2E1-E2", "result": "39/4H-13/2E1-13/4E2", "steps": [["-H+2E1-E2", "1/4"], '
    '["H-E1-E2", "2"]], "light_cone_limit": false}], '
    '"alternating": {"odd": ["2", "0", "0"], "even": ["0", "0", "0"]}}\n'
)
_ROUND_ERR = "error: positive dual has round boundary; negative-square directions -E1, E2\n"


@pytest.mark.parametrize(
    "config,argv,code,out,err",
    [
        ("two", ["--start", "8H-5E1-E2"], 0, _TWO_TEXT, ""),
        ("two", ["--start", "8H-5E1-E2", "--json"], 0, _TWO_JSON, ""),
        ("two", ["--start", "8H-5E1-E2", "--ray", "3H-2E1-E2", "--trace", "6", "--json"],
         0, _TWO_TRACE_JSON, ""),
        ("trivial", ["--start", "U+3T"], 0,
         "T: reached T via none (light-cone limit)\nU+T: reached 2U+2T via 1 along U-T\n", ""),
        ("trivial", ["--start", "U+3T", "--json"], 0,
         '{"start": "U+3T", "achieved": ['
         '{"ray": "T", "result": "T", "steps": [], "light_cone_limit": true}, '
         '{"ray": "U+T", "result": "2U+2T", "steps": [["U-T", "1"]], '
         '"light_cone_limit": false}]}\n', ""),
        ("nontrivial", ["--start", "U+3T"], 0,
         "T: reached T via none (light-cone limit)\nU: reached 4U via 3 along U-T\n", ""),
        ("nontrivial", ["--start", "U+3T", "--json"], 0,
         '{"start": "U+3T", "achieved": ['
         '{"ray": "T", "result": "T", "steps": [], "light_cone_limit": true}, '
         '{"ray": "U", "result": "4U", "steps": [["U-T", "3"]], '
         '"light_cone_limit": false}]}\n', ""),
        ("round", ["--start", "H"], 1, "", _ROUND_ERR),
        ("round", ["--start", "H", "--json"], 1, "", _ROUND_ERR),
    ],
    ids=["two-text", "two-json", "two-trace-json", "trivial-text", "trivial-json",
         "nontrivial-text", "nontrivial-json", "round-text", "round-json"],
)
def test_inflate_output_is_pinned(capsys, tmp_path, config, argv, code, out, err):
    """The full stdout, stderr and exit code of `inflate`, byte for byte."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(INFLATE_CONFIGS[config]))
    assert run(capsys, "inflate", "--config", str(path), *argv) == (code, out, err)


RULED_CONFIGS = {
    "trivial": {"surface": {"kind": "trivial_ruled", "h": 1}, "curves": ["U-T"],
                "extra_square_zero": ["T"]},
    "nontrivial": {"surface": {"kind": "nontrivial_ruled", "h": 2}, "curves": ["U-2T"],
                   "extra_square_zero": ["T"]},
}


@pytest.mark.parametrize("config", ["trivial", "nontrivial"])
@pytest.mark.parametrize(
    "flags,out",
    [
        ((), "p1: pass -- all curves classified\n"
             "p2: pass -- witness U+2T\n"
             "p3: pass -- all -1 classes decompose\n"),
        (("--json",), '{"p1": {"passed": true, "details": "all curves classified"}, '
                      '"p2": {"passed": true, "details": "witness U+2T"}, '
                      '"p3": {"passed": true, "details": "all -1 classes decompose"}, '
                      '"passed": true}\n'),
    ],
    ids=["text", "json"],
)
def test_validate_ruled_output_is_pinned(capsys, tmp_path, config, flags, out):
    """`config validate` on minimal ruled surfaces, whose certified classes
    are the fiber and one section: full stdout, stderr and exit code."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(RULED_CONFIGS[config]))
    assert run(capsys, "config", "validate", str(path), *flags) == (0, out, "")


@pytest.mark.parametrize(
    "k,flags,digest",
    [
        ("7", (), "9b2075d0a22db73389d787913081147c0235864d57c5aad0543ebe34f79ec737"),
        ("7", ("--json",), "dedb565581cc907b20e9010f962f4bfd6c1a5d4ae8dcbaf2dc349a822a4f199d"),
        ("8", ("--json",), "50359b714f6d7905b2552749d762b1697163b14c9f24e268671a96e4764f1e88"),
    ],
    ids=["text", "json", "k8-json"],
)
def test_ksymp_output_is_pinned(capsys, k, flags, digest):
    """The sha256 of the stdout of `cone ksymp --k 7` and `--k 8`: the 702
    and 19,440 corners generated as the orbits of H and H - E1 and
    certified by adjacency decomposition."""
    code, out, err = run(capsys, "cone", "ksymp", "--k", k, *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_closed_pipe_ends_quietly():
    """A reader that stops after one line of `cone ksymp --k 8`, about 800 KB,
    far above a pipe's buffer, leaves exit code 1 and no traceback."""
    src = str(Path(conelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "conelab.cli", "cone", "ksymp", "--k", "8"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"H-E1  square 0  genus 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (1, b"")


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["cert", "--k", "3", "--class", "2H-E1-E2-E3"], 0,
         '{"certified": true, "class": "2H-E1-E2-E3", "dimension": "4", "witness": "H", '
         '"magnitude": 1}\n', ""),
        (["cert", "--surface", "ruled:h=2", "--class", "2U+3T"], 0,
         '{"certified": true, "class": "2U+3T", "dimension": "14", "witness": "T", '
         '"magnitude": 9}\n', ""),
        (["cert", "--k", "0", "--class=-H"], 1,
         '{"certified": false, "reason": "dimension -2 negative"}\n', ""),
        (["cert", "--k", "0", "--class=-3H"], 1,
         '{"certified": false, "reason": "no vanishing witness in the pool"}\n', ""),
        (["cert", "--surface", "ruled:h=2", "--class=-U+T"], 1,
         '{"certified": false, "reason": "wall-crossing magnitude 0"}\n', ""),
        (["cert", "--k", "0", "--class", "1/2H"], 1, "", "error: integral classes only\n"),
        (["cert", "--surface", "ruled:h=2", "--class", "U+1/2T"], 1, "",
         "error: integral classes only\n"),
        (["decompose", "--surface", "ruled:h=2", "--class", "T"], 0,
         '{"extremal": true, "reason": "extremal, no witness expected: fiber class"}\n', ""),
        (["decompose", "--surface", "ruled:h=2,k=1", "--class", "T"], 1, "",
         "error: fiber degree must be positive for the case split\n"),
        (["decompose", "--surface", "ruled:h=2,k=1", "--class", "E1"], 0,
         '{"extremal": true, "reason": "extremal, no witness expected: exceptional class"}\n',
         ""),
        (["decompose", "--surface", "ruled:h=2,k=1", "--class", "T-E1"], 0,
         '{"extremal": true, "reason": "extremal, no witness expected: '
         'fiber minus exceptional class"}\n', ""),
        (["decompose", "--surface", "ruled:h=1", "--class", "U+T"], 0,
         '{"extremal": false, "scale": 3, "summands": ['
         '{"class": "3U+2T", "magnitude": 4, "dimension": "16"}, '
         '{"class": "T", "magnitude": 1, "dimension": "2"}]}\n', ""),
        (["decompose", "--surface", "ruled:h=1,k=1", "--class", "U+3T-2E1"], 0,
         '{"extremal": false, "scale": 1, "summands": ['
         '{"class": "U+2T-E1", "magnitude": 2, "dimension": "6"}, '
         '{"class": "T-E1", "magnitude": 1, "dimension": "0"}]}\n', ""),
        (["decompose", "--k", "2", "--class", "H"], 1, "",
         "error: non-extremality witnesses cover ruled surfaces\n"),
    ],
    ids=["cert-rational", "cert-ruled", "cert-negative-dimension", "cert-no-witness",
         "cert-magnitude-zero",
         "cert-fractional-rational", "cert-fractional-ruled",
         "decompose-fiber", "decompose-fiber-after-blowup", "decompose-exceptional",
         "decompose-fiber-minus-exceptional",
         "decompose-torus-base", "decompose-multiplicity", "decompose-rational"],
)
def test_sw_output_is_pinned(capsys, argv, code, out, err):
    """The full stdout, stderr and exit code of `sw cert` and `sw decompose`,
    byte for byte."""
    assert run(capsys, "sw", *argv) == (code, out, err)


@pytest.mark.parametrize(
    "document,argv,code,out,err",
    [
        (None, ["cremona", "equiv", "2H-E1-E2-E3", "H", "--k", "3", "--json"], 0,
         '{"outcome": "equivalent", "which": "", '
         '"path": ["2H-E1-E2-E3", "H"]}\n', ""),
        (None, ["cremona", "reduce", "--class", "E1", "--k", "3"], 0,
         "cycle after 0 steps\ntrace: E3\n", ""),
        (None, ["cremona", "equiv", "E1", "H-E1-E2", "--k", "2", "--json"], 0,
         '{"outcome": "distinct_by_invariant", "which": "orbit_exhausted", "path": []}\n', ""),
        (None, ["cone", "dual", "--rays", "E1,-E1,E2", "--k", "2"], 0, "-E2\nH (lineality)\n", ""),
        (None, ["cone", "dual", "--rays", "2E1,E1,E2,E1+E2,0", "--k", "2", "--json"], 0,
         '{"surface": {"kind": "rational", "k": 2}, "rays": ["-E1", "-E2"], '
         '"facets": ["E2", "E1", "E1+E2"], "lineality": ["H"]}\n', ""),
        (None, ["cone", "dual", "--rays", "0", "--k", "2"], 1, "", "error: all generators are zero\n"),
        ({"surface": {"kind": "rational", "k": 2}}, ["cone", "dual", "--rays-file", FILE], 2, "",
         "error: FILE has no 'rays' entry\n"),
        ({"surface": {"kind": "rational", "k": 2}, "rays": []}, ["cone", "dual", "--rays-file", FILE],
         2, "", "error: no class literal in the rays entry\n"),
        ({"surface": {"kind": "rational", "k": 2}, "curves": ["E1", "E2", "H-E1-E2"]},
         ["nef-threshold", "--omega", "3H-E1-E2", "--curves-file", FILE], 0, "1\n", ""),
        ({"surface": {"kind": "rational", "k": 2}, "curves": ["E1", "E2", "H-E1-E2"]},
         ["nef-threshold", "--omega", "3H-E1-E2", "--curves-file", FILE, "--json"], 0,
         '{"threshold": "1"}\n', ""),
        (FOUR_CURVES, ["inflate", "--config", FILE, "--start", "11H-7E1-2E2-E3", "--ray", "H"],
         2, "", "error: H is not an extremal ray of the positive dual\n"),
        (INFLATE_CONFIGS["two"], ["inflate", "--config", FILE, "--start", "8H-5E1-E2",
                                  "--ray", "3H-2E1-E2", "--trace", "4"], 0,
         "3H-2E1-E2: reached 39/4H-13/2E1-13/4E2 via 1/4 along -H+2E1-E2, 2 along H-E1-E2\n"
         "alternating coefficients:\n  odd:  2, 0\n  even: 0, 0\n", ""),
        ({"surface": {"kind": "rational", "k": 3}, "curves": ["E3", "H-E1-E3"]},
         ["config", "blowdown", FILE, "--at", "E3"], 0,
         "curves: \ndropped (non-negative square): H-E1-E3\n", ""),
        ({"surface": {"kind": "rational", "k": 2}, "curves": ["E1", "E2", "H-E1-E2"],
          "extra_square_zero": ["H-E1"]},
         ["config", "blowdown", FILE, "--at", "E2", "--json"], 0,
         '{"surface": {"kind": "rational", "k": 1}, "curves": ["E1"], '
         '"extra_square_zero": ["H-E1"], "dropped": ["H-E1-E2"]}\n', ""),
        ({"surface": {"kind": "rational", "k": 2}, "curves": ["E1", "E2", "H-E1-E2"],
          "extra_square_zero": ["H-E1"]},
         ["config", "blowdown", FILE, "--at", "E2"], 0,
         "curves: E1\nsquare-zero: H-E1\ndropped (non-negative square): H-E1-E2\n", ""),
        ({"surface": {"kind": "rational", "k": 2}, "curves": ["-H+E1+E2"]},
         ["config", "validate", FILE], 1,
         "p1: FAIL -- unclassified: -H+E1+E2\n"
         "p2: FAIL -- witness not positive on: -H+E1+E2, H-E1-E2\n"
         "p3: FAIL -- no decomposition for: H-E1-E2\n", ""),
        ({"surface": {"kind": "nontrivial_ruled", "h": 1}, "curves": ["T-U"]},
         ["config", "validate", FILE], 1,
         "p1: FAIL -- unclassified: -U+T\n"
         "p2: FAIL -- witness 2U-T has square 0\n"
         "p3: pass -- all -1 classes decompose\n", ""),
        (None, ["cone", "dual", "--rays", "U,T", "--surface", "ruled:h=1", "--paper-signs"], 0,
         "(0, 1)\n(1, 0)\n", ""),
        (None, ["nef-threshold", "--omega", "3H-E1", "--curves", "2H-E1-E2", "--k", "2"], 1, "",
         "error: threshold denominator 4 exceeds 3\n"),
        (None, ["enumerate", "--k", "3", "--families", "--json"], 0,
         '{"families": ["E1 (1 on one E)", "H-E1-E2 (1 on 2 E\'s)"]}\n', ""),
        (None, ["enumerate", "--k", "3", "--square", "-2", "--families"], 0,
         "E1-E2 (1 on one E, 1 subtracted on 1 E's)\nH-E1-E2-E3 (1 on 3 E's)\n", ""),
        (None, ["enumerate", "--k", "3", "--square", "-3", "--nbound", "2", "--families"], 0,
         "-H+2E1 (2 on one E)\nE1-E2-E3 (1 on one E, 1 subtracted on 2 E's)\n", ""),
        (None, ["enumerate", "--surface", "ruled:h=1,k=1"], 1, "",
         "error: enumeration applies to blowups of the plane\n"),
        (None, ["cone", "ksymp", "--surface", "ruled:h=1"], 1, "",
         "error: the K-symplectic cone helper covers rational surfaces\n"),
        ({"surface": {"kind": "rational", "k": 2}, "curves": ["E2", "H-E1-E2", "-H+2E1"]},
         ["inflate", "--config", FILE, "--start", "H-2E2"], 1, "",
         "error: start class pairs negatively with -H+2E1\n"),
        ({"surface": {"kind": "rational", "k": 9}, "curves": ["E9", "E8-E9"]},
         ["config", "validate", FILE], 1, "", "error: certified sets are finite only for k <= 8\n"),
        ({"surface": {"kind": "trivial_ruled", "h": 1, "k": 1}, "curves": ["E1", "T-E1"]},
         ["config", "blowdown", FILE, "--at", "E1"], 1, "",
         "error: blow-down implemented for rational surfaces\n"),
        ({"surface": {"kind": "rational", "k": 3}, "curves": ["E3", "E2-E3", "H-E1-E2-E3"]},
         ["config", "blowdown", FILE, "--at", "E2-E3"], 1, "",
         "error: E2-E3 is not a -1 sphere class\n"),
        (None, ["sw", "decompose", "--surface", "ruled:h=1", "--class", "1/2U+T"], 1, "",
         "error: integral classes only\n"),
        ({"surface": {"kind": "trivial_ruled", "h": 1, "k": 1}, "curves": ["E1"]},
         ["config", "validate", FILE], 1, "", "error: certified ruled sets cover minimal surfaces\n"),
        (None, ["cone", "ksymp", "--k", "9"], 1, "", "error: infinitely many -1 classes for k >= 9\n"),
        (None, ["enumerate", "--k", "9"], 1, "", "error: k = 9 rejected: the class set is infinite\n"),
        (None, ["cremona", "reduce", "--class", "H", "--k", "2"], 1, "",
         "error: Cremona reflections need a rational surface with k >= 3\n"),
        (None, ["enumerate", "--surface", "ruled:h=0"], 2, "",
         "error: ruled surfaces need base genus h >= 1\n"),
        (None, ["squares", "--total", "-1"], 2, "", "error: --total must be >= 0\n"),
        (None, ["enumerate", "--k", "2", "--nbound", "-1"], 2, "", "error: --nbound must be >= 0\n"),
        (INFLATE_CONFIGS["two"], ["inflate", "--config", FILE, "--start", "8H-5E1-E2", "--trace", "0"],
         2, "", "error: --trace must be >= 1\n"),
        (INFLATE_CONFIGS["two"], ["inflate", "--config", FILE, "--start", "8H-5E1-E2",
                                  "--ray", "H-E1", "--trace", "-3"], 2, "", "error: --trace must be >= 1\n"),
        (None, ["cone", "dual", "--rays", "H,-H", "--k", "0"], 0, "", ""),
        (None, ["cone", "dual", "--rays", "H,-H", "--k", "0", "--json"], 0,
         '{"surface": {"kind": "rational", "k": 0}, "rays": [], "facets": ["-H", "H"], '
         '"lineality": []}\n', ""),
        (None, ["enumerate", "--k", "0"], 0, "", ""),
        (None, ["cremona", "reduce", "--class", "2H-E1 E2", "--k", "3"], 2, "",
         "error: cannot parse class literal '2H-E1 E2' at 'E2'\n"),
    ],
    ids=["cremona-equiv-json", "cremona-reduce-cycle-text", "cremona-equiv-two-blowups-json", "cone-dual-lineality-text",
         "cone-dual-normalised-facets-json", "cone-dual-zero-generators",
         "cone-dual-file-without-rays", "cone-dual-file-with-empty-rays",
         "nef-threshold-file-text", "nef-threshold-file-json", "inflate-ray-not-extremal",
         "inflate-trace-text", "blowdown-dropped-text", "blowdown-square-zero-kept-json",
         "blowdown-square-zero-kept-text", "validate-witness-not-positive",
         "validate-witness-square-zero", "cone-dual-ruled-paper-signs",
         "nef-threshold-denominator-four", "enumerate-families-json",
         "enumerate-families-anchored-one-subtracted", "enumerate-families-anchored-n-one",
         "enumerate-ruled", "ksymp-ruled", "inflate-start-pairs-negatively",
         "validate-nine-blowups", "blowdown-ruled", "blowdown-not-minus-one",
         "decompose-fractional", "validate-blown-up-ruled", "ksymp-nine-blowups",
         "enumerate-nine-blowups", "cremona-reduce-two-blowups", "enumerate-ruled-genus-zero",
         "squares-negative-total", "enumerate-negative-nbound", "inflate-trace-zero", "inflate-trace-negative",
         "cone-dual-origin-text", "cone-dual-origin-json", "enumerate-plane",
         "cremona-reduce-juxtaposed-terms"],
)
def test_branch_output_is_pinned(capsys, tmp_path, document, argv, code, out, err):
    """The full stdout, stderr and exit code of the CLI branches that no
    other test reaches, byte for byte; `FILE` names the written document."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    got = run(capsys, *(str(path) if a == FILE else a for a in argv))
    assert got == (code, out, err.replace(FILE, str(path)))


class TestSw:
    def test_cert(self, capsys):
        code, out, _ = run(capsys, "sw", "cert", "--surface", "ruled:h=2",
                           "--class", "2U+3T")
        data = json.loads(out)
        assert code == 0 and data["magnitude"] == 9

    def test_decompose_extremal(self, capsys):
        code, out, _ = run(capsys, "sw", "decompose", "--surface", "ruled:h=2",
                           "--class", "T")
        data = json.loads(out)
        assert code == 0 and data["extremal"]


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--suite", "ruled")
        assert code == 0
        assert out == (
            "[PASS] ruled-negative-classes: trivial_ruled(h=1, k=0): ok; trivial_ruled(h=2, k=0): ok; "
            "trivial_ruled(h=3, k=0): ok; nontrivial_ruled(h=1, k=0): ok; nontrivial_ruled(h=2, k=0): ok; "
            "nontrivial_ruled(h=3, k=0): ok\n"
            "1 passed, 0 failed\n"
        )

    @pytest.mark.parametrize("error", [ZeroDivisionError("division by zero"),
                                       ConeError("threshold denominator 5 exceeds 3")])
    def test_a_raising_check_fails_and_the_others_run(self, capsys, monkeypatch, error):
        def raising(omega, curves):
            raise error

        monkeypatch.setattr(cones, "nef_threshold", raising)
        code, out, _ = run(capsys, "verify-paper", "--suite", "cones", "--json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        failed = checks.pop("nef-threshold")
        assert code == 1
        assert (failed["status"], failed["details"]) == ("fail", f"raised {type(error).__name__}: {error}")
        assert checks and all(c["status"] == "pass" for c in checks.values())
        code, out, _ = run(capsys, "verify-paper", "--suite", "cones")
        lines = out.splitlines()
        assert code == 1
        assert f"[FAIL] nef-threshold: raised {type(error).__name__}: {error}" in lines
        assert lines[-1] == f"{len(checks)} passed, 1 failed"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--suite", "ruled", "--json")
        data = json.loads(out)
        assert data["summary"]["failed"] == 0
        assert all({"name", "reference", "status", "details"} <= set(c) for c in data["checks"])

    def test_json_is_the_golden_file(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--json")
        assert code == 0
        assert out.encode() == GOLDEN.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,document",
        [
            (["cremona", "reduce", "--class", "1/0H", "--k", "3"], None),
            (["config", "validate", "{missing}"], None),
            (["config", "validate", "{file}"], {"curves": ["E1"]}),
            (["cone", "ksymp", "--surface", "rational:k=x"], None),
            (["config", "validate", "{file}"], []),
            (["config", "validate", "{file}"],
             {"surface": {"kind": "rational", "k": "x"}, "curves": ["E1"]}),
            (["config", "validate", "{file}"], {"surface": {"kind": "foo"}, "curves": ["E1"]}),
            (["cone", "ksymp", "--k", "3", "--paper-signs"], None),
            (["sw", "cert", "--surface", "ruled:h=2", "--class", "2U+3T", "--json"], None),
            (["config", "validate", "{file}"],
             {"surface": {"kind": "rational", "k": 2}, "curves": [1]}),
            (["config", "validate", "{file}"],
             {"surface": {"kind": "rational", "k": 2}, "curves": "H"}),
            (["cone", "dual", "--rays-file", "{file}"],
             {"surface": {"kind": "rational", "k": 2}, "rays": [1]}),
            (["cone", "ksymp", "--k", "-1"], None),
            (["enumerate", "--k", "2", "--genus=1"], None),
            (["enumerate", "--surface", "rational:h=2"], None),
            (["enumerate", "--surface", "rational:q=5"], None),
            (["enumerate", "--surface", "rational:k=2,k=3"], None),
            (["config", "validate", "{file}"],
             {"surface": {"kind": "rational", "k": 2.7}, "curves": ["E1"]}),
            (["config", "validate", "{file}"],
             {"surface": {"kind": "rational", "k": "2"}, "curves": ["E1"]}),
            (["config", "validate", "{file}"],
             {"surface": {"kind": "rational", "k": True}, "curves": ["E1"]}),
            (["cone", "dual", "--k", "2", "--rays", "E1", "--rays-file", "{file}"],
             {"surface": {"kind": "rational", "k": 2}, "rays": ["E1"]}),
            (["cremona", "reduce", "--k", "3", "--surface", "rational:k=4", "--class", "H"], None),
            (["cone", "dual", "--k", "2", "--rays", ","], None),
            (["inflate", "--config", "{file}", "--start", "11H-7E1-2E2-E3", "--trace", "4"],
             {"surface": {"kind": "rational", "k": 3},
              "curves": ["E3", "E2-E3", "H-E1-E2-E3", "-H+2E1-E2"]}),
            (["inflate", "--config", "{file}", "--start", "11H-7E1-2E2-E3",
              "--ray", "H-E1", "--trace", "4"],
             {"surface": {"kind": "rational", "k": 3},
              "curves": ["E3", "E2-E3", "H-E1-E2-E3", "-H+2E1-E2"]}),
            (["config", "catalog", "cp2+2", "--n", "-3"], None),
            (["cone", "dual", "--rays-file", "{file}", "--k", "5"],
             {"surface": {"kind": "rational", "k": 2}, "rays": ["E1"]}),
            (["cone", "dual", "--surface", "rational:k=2", "--rays-file", "{file}"],
             {"surface": {"kind": "rational", "k": 2}, "rays": ["E1"]}),
            (["nef-threshold", "--omega", "H", "--curves-file", "{file}", "--k", "5"],
             {"surface": {"kind": "rational", "k": 2}, "curves": ["E1"]}),
            (["nef-threshold", "--omega", "H", "--surface", "rational:k=2",
              "--curves-file", "{file}"],
             {"surface": {"kind": "rational", "k": 2}, "curves": ["E1"]}),
        ],
        ids=["zero-denominator", "missing-file", "no-surface", "bad-surface-int",
             "json-not-object", "json-bad-surface-int", "json-unknown-kind",
             "ksymp-paper-signs", "sw-json", "curve-not-string", "curves-not-list", "ray-not-string",
             "negative-k", "enumerate-genus", "rational-h", "unknown-surface-key",
             "repeated-surface-key",
             "json-float-k", "json-string-k", "json-bool-k", "rays-and-rays-file",
             "k-and-surface", "no-ray-literal", "trace-without-ray", "trace-ray-not-on-two",
             "negative-catalog-n", "rays-file-and-k", "rays-file-and-surface",
             "curves-file-and-k", "curves-file-and-surface"],
    )
    def test_malformed_input_exits_2(self, capsys, tmp_path, argv, document):
        path = tmp_path / "cfg.json"
        if document is not None:
            path.write_text(json.dumps(document))
        argv = [a.format(missing=tmp_path / "absent.json", file=path) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        if err.startswith("usage: "):  # a flag the subcommand does not take, or two exclusive ones
            reason = err.splitlines()[-1].partition(": error: ")[2]
            assert reason == "unrecognized arguments: " + argv[-1] or re.fullmatch(
                r"argument --[\w-]+: not allowed with argument --[\w-]+", reason)
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_command(self, capsys):
        assert main(["nonsense"]) == 2

    def test_missing_required(self, capsys):
        assert main(["enumerate", "--square=-1"]) == 2

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "config", "catalog", "cp2+9")
        assert code == 2


# -- fuzz: any argv ends in exit 0, 1 or 2, never in a traceback -----------

def _mostly(valid, junk):
    """valid about three times in four, junk otherwise."""
    return st.sampled_from([valid, valid, valid, junk]).flatmap(lambda s: s)


def _literal(terms):
    text = "".join(c + b if i == 0 or c.startswith("-") else "+" + c + b
                   for i, (c, b) in enumerate(terms))
    return text or "0"


PLANE_CLASSES = st.lists(st.tuples(st.sampled_from(["", "-", "2", "-2", "3"]),
                                   st.sampled_from(["H", "E1", "E2"])),
                         max_size=4).map(_literal)
CLASSES = _mostly(
    st.lists(st.tuples(st.sampled_from(["", "-", "2", "-2", "3", "0", "1/2", "-1/3"]),
                       st.sampled_from(["H", "H", "E1", "E2", "E3", "E4", "E6", "U", "T"])),
             max_size=4).map(_literal),
    st.text(alphabet="HETU0123456789+-/ ,", max_size=6),
)
CLASS_LISTS = st.lists(CLASSES, max_size=4).map(",".join)
INTS = st.integers(-3, 6).map(str)
SURFACES = _mostly(
    st.one_of(st.builds("rational:k={}".format, st.integers(0, 6)),
              st.builds("ruled:h={},k={}".format, st.integers(1, 3), st.integers(0, 2)),
              st.builds("nontrivial-ruled:h={}".format, st.integers(1, 3))),
    st.builds(lambda kind, params: kind + (":" + ",".join(params) if params else ""),
              st.sampled_from(["rational", "ruled", "trivial_ruled", "weird", ""]),
              st.lists(st.builds("{}={}".format, st.sampled_from(["k", "h", "q", ""]),
                                 st.sampled_from(["-1", "0", "2", "x", "", "2.5"])),
                       max_size=3)),
)
JSON_SURFACES = _mostly(
    st.builds(lambda k: {"kind": "rational", "k": k}, st.integers(2, 4)),
    st.one_of(
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["rational", "trivial_ruled", "nontrivial_ruled", "ruled"])},
            optional={key: st.one_of(st.integers(-1, 3), st.sampled_from([2.5, "2", True, None]))
                      for key in ("k", "h")}),
        st.sampled_from([[], "rational", 3]),
    ),
)
JSON_LISTS = _mostly(st.lists(PLANE_CLASSES, max_size=5),
                     st.one_of(CLASSES, st.lists(st.one_of(CLASSES, st.integers(0, 2)))))
DOCUMENTS = _mostly(
    st.fixed_dictionaries({"surface": JSON_SURFACES, "curves": JSON_LISTS},
                          optional={"rays": JSON_LISTS, "extra_square_zero": JSON_LISTS}),
    st.one_of(st.fixed_dictionaries({}, optional={"curves": JSON_LISTS}),
              st.sampled_from([[], "x", 1, None])),
)
ON_SURFACE = {"--k": st.integers(-2, 6).map(str), "--surface": SURFACES}
# leaf command -> (positionals, groups of which one flag is drawn, optional flags);
# a flag maps to its value strategy, or to None for a switch
LEAVES = {
    ("enumerate",): ([], [ON_SURFACE], {"--json": None, "--paper-signs": None,
                                        "--families": None, "--square": INTS,
                                        "--nbound": INTS}),
    ("squares",): ([], [{"--total": st.integers(-3, 500).map(str)}],
                   {"--any-sum": None, "--json": None}),
    ("cremona", "reduce"): ([], [ON_SURFACE, {"--class": CLASSES}], {"--json": None}),
    ("cremona", "equiv"): ([CLASSES, CLASSES], [ON_SURFACE], {"--json": None}),
    ("cone", "dual"): ([], [ON_SURFACE, {"--rays": CLASS_LISTS, "--rays-file": st.just(FILE)}],
                       {"--json": None, "--paper-signs": None}),
    ("cone", "ksymp"): ([], [ON_SURFACE], {"--json": None}),
    ("nef-threshold",): ([], [ON_SURFACE, {"--omega": CLASSES},
                              {"--curves": CLASS_LISTS, "--curves-file": st.just(FILE)}],
                         {"--json": None}),
    ("inflate",): ([], [{"--config": st.just(FILE)}, {"--start": CLASSES}],
                   {"--ray": CLASSES, "--trace": INTS, "--json": None}),
    ("config", "validate"): ([st.just(FILE)], [], {"--json": None}),
    ("config", "blowdown"): ([st.just(FILE)], [{"--at": CLASSES}], {"--json": None}),
    ("config", "catalog"): ([st.sampled_from(["cp2+1", "cp2+2", "cp2+3", "cp2+9"])], [],
                            {"--n": INTS, "--json": None}),
    ("sw", "cert"): ([], [ON_SURFACE, {"--class": CLASSES}], {}),
    ("sw", "decompose"): ([], [ON_SURFACE, {"--class": CLASSES}], {}),
}
FOREIGN = ["--json", "--paper-signs", "--k=2", "--surface=rational:k=1", "--rays=E1",
           "--class=H"]


@st.composite
def command_lines(draw):
    leaf = draw(st.sampled_from(sorted(LEAVES)))
    positionals, groups, optional = LEAVES[leaf]
    flags = [draw(st.sampled_from(sorted(group))) for group in groups]
    if optional:
        flags += draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=3))
    values = {flag: value for group in groups for flag, value in group.items()} | optional
    argv = list(leaf) + [draw(s) for s in positionals]
    argv += [f if values[f] is None else f"{f}={draw(values[f])}" for f in flags]
    if argv[len(leaf):] and draw(st.integers(0, 7)) == 0:  # one input missing
        argv.remove(draw(st.sampled_from(argv[len(leaf):])))
    if draw(st.integers(0, 7)) == 0:  # a flag the leaf does not take, or a second source
        argv.append(draw(st.sampled_from(FOREIGN)))
    return argv, draw(DOCUMENTS)


class TestFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(command_lines())
    def test_main_exits_0_1_or_2(self, tmp_path_factory, drawn):
        argv, document = drawn
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(document))
        argv = [a.replace(FILE, str(path)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert code != 2 or err.getvalue(), argv
        if code != 2 and out.getvalue() and ("--json" in argv or argv[0] == "sw"):
            json.loads(out.getvalue())  # exactly one JSON document

    @pytest.mark.parametrize("k", range(-3, 10))
    def test_k_is_rational_k(self, capsys, k):
        by_k = run(capsys, "enumerate", "--families", "--k", str(k))
        by_surface = run(capsys, "enumerate", "--families", "--surface", f"rational:k={k}")
        assert by_k == by_surface


@pytest.mark.parametrize("flags,out", [
    ([], "p1: FAIL -- unclassified: -E1\n"
         "p2: FAIL -- dual cone has no extremal rays\n"
         "p3: pass -- all -1 classes decompose\n"),
    (["--json"], '{"p1": {"passed": false, "details": "unclassified: -E1"}, '
                 '"p2": {"passed": false, "details": "dual cone has no extremal rays"}, '
                 '"p3": {"passed": true, "details": "all -1 classes decompose"}, '
                 '"passed": false}\n'),
], ids=["text", "json"])
def test_validate_a_dual_without_rays_is_pinned(capsys, tmp_path, flags, out):
    """-E1 and -H+2E1 on one blowup leave a dual cone with no extremal ray,
    which property 2 reports as such."""
    path = tmp_path / "no-rays.json"
    path.write_text(json.dumps({"surface": {"kind": "rational", "k": 1},
                                "curves": ["-E1", "-H+2E1"], "extra_square_zero": ["H-E1"]}))
    assert run(capsys, "config", "validate", str(path), *flags) == (1, out, "")


def test_decompose_without_a_certified_multiple_exits_1(capsys):
    """No multiple l C - T in the scan window of U-T+3E1 over a torus base
    has positive dimension, so `sw decompose` reports the error and exits 1."""
    argv = ("sw", "decompose", "--surface", "ruled:h=1,k=1", "--class", "U-T+3E1")
    assert run(capsys, *argv) == (1, "", "error: no certified multiple found in the scan window\n")
