"""End-to-end runs of the solv-lab command line through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvlab
from solvlab import families, solubilizer
from solvlab.cli import main
from solvlab.families import _FAMILIES, CatalogEntry, FamilySpec, save_group_file
from solvlab.group import ElementSet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestSol:
    def test_a5_five_cycle(self, capsys):
        code, doc, _ = run_json(capsys, "sol", "--family", "a:5", "--order", "5")
        assert code == 0
        assert doc["command"] == "sol"
        item = doc["items"][0]
        assert item["sol_size"] == 10
        assert item["nx_order"] == 10
        assert item["nx_structure"] == "D_10"
        assert item["ratio34"] == "3/1"
        assert item["flags"] == {
            "conjecture": True,
            "is_subgroup": True,
            "equals_nx": True,
        }

    def test_explicit_element(self, capsys):
        code, doc, _ = run_json(
            capsys, "sol", "--family", "a:5", "--element", "(1,2)(3,4)"
        )
        assert code == 0
        item = doc["items"][0]
        assert item["order"] == 2
        assert item["sol_size"] == 36
        assert not item["flags"]["is_subgroup"]

    def test_group_file_input(self, capsys, tmp_path):
        entry = CatalogEntry.from_spec(FamilySpec("dihedral", (6,)))
        path = tmp_path / "d6.group"
        save_group_file(path, "hexagon", entry.group)
        code, doc, _ = run_json(
            capsys, "sol", "--file", str(path), "--order", "6"
        )
        assert code == 0
        # soluble group, so the solubilizer is everything
        assert doc["items"][0]["sol_size"] == 12
        assert doc["params"]["group"] == "hexagon"

    def test_element_outside_group(self, capsys):
        code, out, err = run(capsys, "sol", "--family", "a:5", "--element", "(1,2)")
        assert code == 1
        assert out == ""
        assert "not in" in err

    def test_no_element_of_order(self, capsys):
        code, _, err = run(capsys, "sol", "--family", "a:5", "--order", "7")
        assert code == 1
        assert "no element of order 7" in err

    def test_unknown_family_token(self, capsys):
        code, _, err = run(capsys, "sol", "--family", "q:5", "--order", "2")
        assert code == 1
        assert "unknown family token" in err

    def test_bad_family_parameters(self, capsys):
        code, _, err = run(capsys, "sol", "--family", "a:x", "--order", "2")
        assert code == 1
        assert "must be integers" in err

    def test_family_over_cap_is_refused_before_construction(self, capsys, monkeypatch):
        # SL(2,256) has order 16776960; building it takes over a minute
        def build(spec):
            raise AssertionError(f"{spec} was constructed")

        monkeypatch.setattr(families, "make_family", build)
        code, out, err = run(capsys, "sol", "--family", "sl2:256", "--order", "2")
        assert code == 1
        assert out == ""
        assert "exceeds enumeration cap" in err

    def test_a_family_above_256_points_exits_1(self, capsys):
        # C_300 has order 300, inside the cap, on more points than allowed
        code, out, err = run(capsys, "sol", "--family", "c:300", "--order", "1")
        assert code == 1
        assert out == ""
        assert "degree 300 exceeds 256" in err
        code, doc, _ = run_json(capsys, "sol", "--family", "c:256", "--order", "256")
        assert code == 0
        assert doc["items"][0]["sol_size"] == 256

    def test_a_matrix_family_checks_its_degree_before_its_field(self, capsys, monkeypatch):
        # PSL(2,256) and SL(2,17) fit the cap but not 256 points: no field is built
        def field(p, n):
            raise AssertionError(f"GF({p}^{n}) was built")

        monkeypatch.setattr(families, "GF", field)
        for token, degree in (("psl2:256", 257), ("sl2:17", 288)):
            code, out, err = run(
                capsys, "sol", "--family", token, "--order", "2", "--cap", "1000000000000"
            )
            assert code == 1, token
            assert out == ""
            assert f"degree {degree} exceeds 256" in err
        monkeypatch.undo()
        # SL(2,16) on its 255 nonzero vectors is the largest that fits
        code, doc, _ = run_json(capsys, "sol", "--family", "sl2:16", "--order", "17")
        assert code == 0
        assert doc["params"]["group"] == "SL(2,16)"

    def test_every_family_token_names_its_family(self, capsys):
        small = {
            "cyclic": (4,),
            "dihedral": (5,),
            "symmetric": (4,),
            "alternating": (5,),
            "agl1": (5,),
            "frobenius_pq": (3, 7),
            "sl2": (3,),
            "psl2": (4,),
            "psl3_2": (),
        }
        assert set(small) == set(_FAMILIES)
        with pytest.raises(SystemExit):
            main(["sol", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        tokens = [entry.token for entry in _FAMILIES.values()]
        assert "tokens: " + ", ".join(tokens) in help_text
        for family, entry in _FAMILIES.items():
            token = ":".join([entry.token, *map(str, small[family])])
            spec = FamilySpec(family, small[family])
            assert FamilySpec.parse(token) == spec
            code, doc, _ = run_json(capsys, "sol", "--family", token, "--order", "1")
            assert code == 0
            assert doc["params"]["group"] == spec.name(), token


class TestUsageErrors:
    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_sol_requires_an_element_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sol", "--family", "a:5"])
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_format_choice_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--format", "yaml"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sol", "--family", "a:5", "--order", "5", "--jobs", "2"],
            ["sol", "--family", "a:5", "--order", "5", "--max-order", "60"],
            ["table1", "--jobs", "2"],
            ["table1", "--max-order", "60"],
            ["classify", "--jobs", "2"],
            ["classify", "--max-order", "60"],
            ["zsigmondy", "17", "6", "--jobs", "2"],
            ["zsigmondy", "17", "6", "--max-order", "60"],
            ["zsigmondy", "17", "6", "--cap", "100"],
        ],
    )
    def test_flag_the_command_does_not_read_exits_1(self, capsys, argv):
        # only verify reads --jobs and --max-order; zsigmondy enumerates no group
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: solv-lab")
        assert "unrecognized arguments: " + argv[-2] in err


class TestEngineInvariantExit:
    def test_corrupted_sol_set_exits_3(self, capsys, monkeypatch):
        # a solubilizer without the identity breaks an invariant of sol_record
        monkeypatch.setattr(
            solubilizer, "sol_set", lambda G, x, cap: ElementSet(G.degree, [x._img])
        )
        code, out, err = run(capsys, "sol", "--family", "a:5", "--order", "5")
        assert code == 3
        assert out == ""
        assert err.startswith("solv-lab: engine invariant violated")

    def test_constructed_order_mismatch_exits_3(self, capsys, monkeypatch):
        # a family that builds a group of the wrong order is an engine bug
        entry = _FAMILIES["alternating"]
        monkeypatch.setitem(_FAMILIES, "alternating", entry._replace(order=lambda n: 1))
        code, out, err = run(capsys, "sol", "--family", "a:5", "--order", "5")
        assert code == 3
        assert out == ""
        assert err.startswith("solv-lab: engine invariant violated")
        assert "constructed order 60 != expected 1" in err


class TestTable1:
    def test_reference_table_matches(self, capsys):
        code, doc, _ = run_json(capsys, "table1")
        assert code == 0
        assert len(doc["items"]) == 5
        assert doc["summary"] == {"checked": 6, "failed": 0, "skipped": 0}
        assert doc["counterexamples"] == []

    def test_identity_column_convention(self, capsys):
        _, doc, _ = run_json(capsys, "table1")
        identity = doc["items"][0]
        assert identity["column"] == "identity"
        assert identity["ell_cx"] == 1
        assert identity["ratio34"] == "1/1"
        assert identity["engine_ell_cx"] == 5
        assert identity["engine_ratio34"] == "5/1"
        assert "note" in identity

    def test_both_5_classes_agree(self, capsys):
        _, doc, _ = run_json(capsys, "table1")
        last = doc["items"][-1]
        assert last["column"] == "5-cycle"
        assert last["flags"]["agrees_with_first_5_class"] is True


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--max-order", "24", "--checks", "conjecture,pq"
        )
        assert code == 0
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["checked"] > 0
        assert doc["params"] == {
            "max_order": 24,
            "checks": ["conjecture", "pq"],
            "cap": 20000,
        }
        assert "jobs" not in doc["params"]

    def test_unknown_check_token(self, capsys):
        code, _, err = run(capsys, "verify", "--checks", "conjecture,bogus")
        assert code == 1
        assert "unknown check token" in err
        assert "bogus" in err

    def test_max_order_beyond_cap(self, capsys):
        code, _, err = run(capsys, "verify", "--max-order", "30000")
        assert code == 1
        assert "exceeds the element cap" in err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--max-order", "3", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "--jobs must be at least 1" in err

    @pytest.mark.parametrize("max_order", ["0", "-5"])
    def test_max_order_below_one(self, capsys, max_order):
        code, out, err = run(capsys, "verify", "--max-order", max_order)
        assert code == 1
        assert out == ""
        assert "--max-order must be at least 1" in err

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--max-order",
            "12",
            "--checks",
            "conjecture",
            "--format",
            "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("group,element,order,sol_size")

    def test_text_format_totals_line(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-order", "12", "--checks", "conjecture"
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("checked ")
        assert "failed 0" in out


class TestDeterminism:
    # same flags must give byte-identical output however the work is split

    def test_repeat_runs_identical(self, capsys):
        args = ("verify", "--max-order", "60", "--checks", "lemma32,ratio34",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_jobs_do_not_change_bytes(self, capsys):
        base = ("verify", "--max-order", "60", "--checks", "conjecture",
                "--format", "json")
        _, serial, _ = run(capsys, *base)
        _, parallel, _ = run(capsys, *base, "--jobs", "2")
        assert serial == parallel

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("verify", "--max-order", "60", "--format", "json"),
                "ca12f5a949d9967d0f447d0607dfb791de90b38445a8ab87169ea38f313beccb",
            ),
            (
                ("table1", "--format", "json"),
                "2755630a50120b1b60f70da905468f315b47d3e1a552b468f4abee44110735fe",
            ),
            (
                ("verify", "--max-order", "120", "--format", "json"),
                "903add2a0deec39524bf08c46f3a4380355800cf79ac57f910fdff56cc8a2e6f",
            ),
            (
                ("classify", "--mode", "table2", "--format", "json"),
                "d739b05e3b77ae4ca18a5379d8dd2aace947d96dd5d7ea40c8c1c70de63d40a0",
            ),
            (
                ("sol", "--family", "psl2:7", "--order", "7", "--format", "json"),
                "3959fd73175bb5d623c1bbb078b586149bb7ff2c222058dc42fc05d7d36df421",
            ),
            (
                ("sol", "--family", "psl2:13", "--order", "7", "--format", "json"),
                "99c8f92e6a852a640341a3eee202ff93e79a51b5a93f251888f812bdc5e7d819",
            ),
            (
                ("sol", "--family", "a:7", "--order", "7", "--format", "json"),
                "a9376b1c98e09c73781fb6056eb837bdf5cde81d0bb5b9de6749c94992f86107",
            ),
            (
                ("sol", "--family", "sl2:5", "--order", "2", "--format", "json"),
                "c42077708044a777893532dd14dddc09e4b7298a1317a10d3672ce384d3e9aa5",
            ),
            (
                ("sol", "--family", "psl2:9", "--order", "5", "--format", "json"),
                "a3efdf0bf9a74b4d36d088e1469efadad0ab56f35f29a906803ca0f2dd53ffb1",
            ),
            (
                ("sol", "--family", "psl2:27", "--order", "13", "--format", "json"),
                "6c3b0b199854c6ff910a0278ec7e3a2adb3bf8bdb3e3001ed75d409c9e72c21c",
            ),
            (
                ("verify", "--format", "json"),
                "2341ac0185eab6c9ed34cba60b98902227a2d32f27fc0ebd833373c806d9048d",
            ),
            (
                ("verify", "--max-order", "20000", "--checks", "conjecture", "--format", "json"),
                "d47912e56ac57f159ab520eaaac6be5a793837d4af50fc97cf16d07799683b72",
            ),
            (
                ("verify", "--max-order", "20000", "--format", "json", "--jobs", "2"),
                "098fed1a1cf24ca67589a2e192d826713844cebf835f3128fed433317497258c",
            ),
        ],
        ids=[
            "verify-60", "table1", "verify-120", "classify-table2", "sol-psl2-7",
            "sol-psl2-13", "sol-a7", "sol-sl2-5", "sol-psl2-9", "sol-psl2-27",
            "verify-default", "verify-20000-conjecture", "verify-20000",
        ],
    )
    def test_report_bytes_are_frozen(self, capsys, argv, digest):
        # SHA-256 of the UTF-8 report, recorded at commit 663a38d (verify-60,
        # table1), c99781d (verify-120, classify-table2, sol-psl2-7),
        # a3b1de9 (sol-psl2-13, sol-a7), b35c016 (sol-sl2-5, the central
        # -1) and e9648d3 (sol-psl2-9, sol-psl2-27, over the non-prime fields
        # GF(9) and GF(27)), 2c69179 (verify-default, the whole default
        # sweep), f4ee299 (verify-20000-conjecture, every record up to
        # the cap) and 84f496b (verify-20000, every suite up to the cap):
        # engine changes that only share or reuse work must not move a byte
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestClassify:
    def test_small_theorem44_run(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify", "--mode", "theorem44",
            "--max-r", "4", "--max-d", "3", "--max-q", "100",
        )
        assert code == 0
        labels = [item["label"] for item in doc["items"]]
        assert "PSL(2,4)" in labels
        assert "PSL(3,2)" in labels
        assert "m23" in labels
        assert all(item["in_theorem44"] for item in doc["items"])
        assert doc["summary"]["failed"] == 0
        # only the two groups with permutation models get brute-forced here
        assert doc["summary"]["checked"] == 2

    def test_table2_includes_negative_rows(self, capsys):
        code, doc, _ = run_json(
            capsys, "classify", "--max-r", "4", "--max-d", "3", "--max-q", "100",
        )
        assert code == 0
        negatives = [i for i in doc["items"] if not i["in_theorem44"]]
        assert [n["family"] for n in negatives] == ["psl2_mersenne"]
        assert doc["summary"]["failed"] == 0

    def test_skipped_rows_carry_a_reason(self, capsys):
        _, doc, _ = run_json(
            capsys, "classify", "--mode", "theorem44",
            "--max-r", "4", "--max-d", "3", "--max-q", "100",
        )
        skipped = [
            i for i in doc["items"]
            if i["flags"]["cross_validation"] == "skipped"
        ]
        assert skipped and all("validation_reason" in i for i in skipped)

    def test_classify_deterministic(self, capsys):
        args = ("classify", "--mode", "theorem44", "--max-r", "4",
                "--max-d", "3", "--max-q", "100", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestZsigmondyCommand:
    def test_17_6(self, capsys):
        code, doc, _ = run_json(capsys, "zsigmondy", "17", "6")
        assert code == 0
        item = doc["items"][0]
        assert item["primitive_primes"] == [7, 13]
        assert item["primitive_part"] == 91
        assert item["flags"]["exists"] is True

    def test_exceptional_pair_is_not_an_error(self, capsys):
        code, doc, _ = run_json(capsys, "zsigmondy", "2", "6")
        assert code == 0
        item = doc["items"][0]
        assert item["flags"]["exists"] is False
        assert "exception" in item["note"]

    def test_non_prime_power_base(self, capsys):
        code, _, err = run(capsys, "zsigmondy", "6", "3")
        assert code == 1
        assert "not a prime power" in err



class TestStartup:
    def test_cli_import_loads_no_process_pool_or_dataclasses(self):
        # verify --jobs 2 imports the pool when it needs it
        # (TestDeterminism.test_jobs_do_not_change_bytes runs that path)
        src = str(Path(solvlab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import solvlab.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        assert "solvlab.checks" in loaded and "solvlab.report" in loaded
        assert "solvlab.classify" in loaded
        for module in ("concurrent.futures", "dataclasses", "inspect"):
            assert module not in loaded
