"""End-to-end CLI coverage: flags, files, JSON round trips, exit codes."""

import json

import pytest

from conelab.cli import main, parse_surface
from conelab.lattice import parse_class, rational_surface, trivial_ruled


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
        from conelab.cli import UsageError

        with pytest.raises(UsageError):
            parse_surface("weird:k=1")


class TestEnumerate:
    def test_exceptional_two_blowups(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--square=-1", "--genus", "0")
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


class TestConfigCommands:
    @pytest.fixture
    def cfg_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "surface": {"kind": "rational", "k": 3},
            "curves": ["E3", "E2-E3", "H-E1-E2-E3", "-H+2E1-E2"],
        }))
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

    def test_inflate_single_ray(self, capsys, cfg_file):
        code, out, _ = run(capsys, "inflate", "--config", cfg_file,
                           "--start", "11H-7E1-2E2-E3", "--ray", "H-E1")
        assert code == 0 and "light-cone limit" in out


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
        code, out, _ = run(capsys, "verify-paper", "--suite", "cremona")
        assert code == 0
        assert "[PASS]" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--suite", "ruled", "--json")
        data = json.loads(out)
        assert data["summary"]["failed"] == 0
        assert all({"name", "reference", "status", "details"} <= set(c) for c in data["checks"])


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
        ],
        ids=["zero-denominator", "missing-file", "no-surface", "bad-surface-int",
             "json-not-object", "json-bad-surface-int", "json-unknown-kind",
             "ksymp-paper-signs", "sw-json", "curve-not-string", "curves-not-list", "ray-not-string"],
    )
    def test_malformed_input_exits_2(self, capsys, tmp_path, argv, document):
        path = tmp_path / "cfg.json"
        if document is not None:
            path.write_text(json.dumps(document))
        argv = [a.format(missing=tmp_path / "absent.json", file=path) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 2
        if err.startswith("usage: "):  # a flag the subcommand does not take
            assert err.splitlines()[-1].endswith("unrecognized arguments: " + argv[-1])
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_command(self, capsys):
        assert main(["nonsense"]) == 2

    def test_missing_required(self, capsys):
        assert main(["enumerate", "--square=-1"]) == 2

    def test_unknown_catalog(self, capsys):
        code, _, err = run(capsys, "config", "catalog", "cp2+9")
        assert code == 2
