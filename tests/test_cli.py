import dataclasses
import json
from decimal import Decimal

import pytest
from test_adversarial import caterpillar

from strees.cli import main
from strees.errors import SpanMismatch
from strees.fixtures import FIXTURE_NAMES, fixture_path
from strees.tree import tree_to_edge_text
from strees.verify import check_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_json_matches_published_parts(self, capsys):
        code, out, _ = run(
            capsys, "decompose", fixture_path("tree18"), "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["support_parts"] == [[1, 2, 3], [4, 5, 6, 7, 8], [9, 10, 11, 12]]
        assert obj["nonsingular_parts"] == [[13, 14], [15, 16, 17, 18]]

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "decompose", fixture_path("tree8"))
        assert code == 0
        assert "support: 2 3 4 5 7 8" in out
        assert "core: 1 6" in out

    def test_dot_output(self, capsys):
        code, out, _ = run(
            capsys, "decompose", fixture_path("tree18"), "--format", "dot"
        )
        assert code == 0
        assert out.startswith("graph tree {")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n"))
        code, out, _ = run(capsys, "decompose", "-")
        assert code == 0
        assert "support: 1 3" in out


class TestVectorCommands:
    def test_null_basis_four_vectors(self, capsys):
        code, out, _ = run(capsys, "null-basis", fixture_path("tree18"))
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_null_basis_json(self, capsys):
        code, out, _ = run(
            capsys, "null-basis", fixture_path("tree18"), "--format", "json"
        )
        obj = json.loads(out)
        assert len(obj["vectors"]) == 4
        for vec in obj["vectors"]:
            assert all(e["coeff"] in (-1, 1) for e in vec)

    def test_range_basis_count(self, capsys):
        code, out, _ = run(
            capsys, "range-basis", fixture_path("tree18"), "--format", "json"
        )
        obj = json.loads(out)
        assert len(obj["vectors"]) == 14
        assert len(obj["roles"]) == 14

    def test_trivial_null_space(self, capsys, tmp_path):
        p = tmp_path / "p2.edges"
        p.write_text("1 2\n")
        code, out, _ = run(capsys, "null-basis", str(p))
        assert code == 0
        assert "trivial" in out


class TestClassifyInvariants:
    def test_classify_nonsingular_pair(self, capsys, tmp_path):
        p = tmp_path / "p2.edges"
        p.write_text("1 2\n")
        code, out, _ = run(capsys, "classify", str(p))
        assert code == 0
        assert "nonsingular_tree: true" in out
        assert "nullity: 0" in out

    def test_invariants_json(self, capsys):
        code, out, _ = run(
            capsys, "invariants", fixture_path("tree8"), "--format", "json"
        )
        obj = json.loads(out)
        assert obj["rank"] == 4
        assert obj["max_matching_count"] == 11
        assert "rank_is_twice_matching" in obj["checks"]


class TestBuildCommands:
    def test_stellare(self, capsys, tmp_path):
        p = tmp_path / "k1.edges"
        p.write_text("0\n")
        code, out, _ = run(capsys, "stellare", str(p), "--ks", "2")
        assert code == 0
        assert out.count("\n") == 2  # a path on 3 vertices has 2 edges

    def test_stellare_bad_ks(self, capsys, tmp_path):
        p = tmp_path / "k1.edges"
        p.write_text("0\n")
        code, _, err = run(capsys, "stellare", str(p), "--ks", "2,x")
        assert code == 1
        assert "error" in err

    def test_coalesce(self, capsys, tmp_path):
        plan = {
            "parts": [
                {"tree": {"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3]]}, "attach": 2},
                {"tree": {"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3]]}, "attach": 2},
            ]
        }
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(plan))
        code, out, _ = run(capsys, "coalesce", str(p), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["tree"]["vertices"]) == 5
        assert obj["star_vertex"] in obj["tree"]["vertices"]

    def test_coalesce_bad_plan(self, capsys, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text("{}")
        code, _, err = run(capsys, "coalesce", str(p))
        assert code == 1

    @pytest.mark.parametrize("attach", [True, 1.0, "1"])
    def test_coalesce_rejects_non_integer_attach(self, capsys, tmp_path, attach):
        part = {"tree": {"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3]]}, "attach": attach}
        p = tmp_path / "plan.json"
        p.write_text(json.dumps({"parts": [part, part]}))
        code, out, err = run(capsys, "coalesce", str(p))
        assert (code, out) == (1, "")
        assert f"part 0: attach vertex must be an integer, got {attach!r}" in err

    def test_random_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "random", "--n", "9", "--seed", "5")
        code2, out2, _ = run(capsys, "random", "--n", "9", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 3


class TestVerifyCommand:
    def test_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--fixtures")
        assert code == 0
        assert "FAIL" not in out
        assert "0 failures" in out

    def test_single_tree(self, capsys):
        code, out, _ = run(capsys, "verify", fixture_path("tree8"))
        assert code == 0
        assert "PASS null_basis" in out

    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--exhaustive-n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sweep_failure_gives_a_witness(self, capsys, monkeypatch, tmp_path, fmt):
        # the brute force loses a maximum matching on every tree that has two:
        # the 3 paths of order 3 and the 4 stars of order 4
        from strees import exact

        honest = exact.brute_force

        def short(t, limit=16):
            oracle = honest(t, limit)
            kept = oracle.maximum_matchings[1:] or oracle.maximum_matchings
            return dataclasses.replace(oracle, maximum_matchings=kept)

        monkeypatch.setattr(exact, "brute_force", short)
        code, out, _ = run(capsys, "verify", "--exhaustive-n", "4", "--format", fmt)
        assert code == 2
        if fmt == "json":
            rows = [(c["name"], c["detail"]) for c in json.loads(out)["checks"] if not c["ok"]]
        else:
            rows = [
                tuple(line[len("FAIL "):].split("  ", 1))
                for line in out.splitlines() if line.startswith("FAIL ")
            ]
        assert rows[0] == ("exhaustive_n_4", "7 of 21 trees failed")
        assert len(rows) == 8
        path = tmp_path / "witness"
        for name, detail in rows[1:]:
            assert name.startswith(("tree n=3 #", "tree n=4 #"))
            names, witness = detail.split("  tree ")
            assert names == "matching_count_brute"
            path.write_text(witness)
            code, out, _ = run(capsys, "verify", str(path), "--format", "json")
            assert code == 2
            assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == [names]

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_exhaustive_below_one_is_usage_error(self, capsys, k):
        code, out, err = run(capsys, "verify", "--exhaustive-n", k)
        assert code == 1
        assert out == ""
        assert "error" in err


class TestErrorPaths:
    def test_bad_input_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("1 2\n2 3\n3 1\n")
        code, _, err = run(capsys, "decompose", str(p))
        assert code == 1
        assert "error" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "decompose", "/no/such/file")
        assert code == 1

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run(capsys, "decompose", "--nope")
        assert code == 1

    def test_no_command_exit_1(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_double_input_exit_1(self, capsys, tmp_path):
        p = tmp_path / "t.edges"
        p.write_text("1 2\n")
        code, _, err = run(capsys, "decompose", str(p), "-i", str(p))
        assert code == 1

    def test_verification_failure_exit_2(self, capsys, monkeypatch):
        def boom(args):
            raise SpanMismatch("forced")

        monkeypatch.setitem(
            __import__("strees.cli", fromlist=["_HANDLERS"])._HANDLERS,
            "decompose",
            boom,
        )
        code, _, err = run(capsys, "decompose", fixture_path("tree8"))
        assert code == 2
        assert "verification failure" in err


class TestDeterminism:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_repeat_runs_identical(self, capsys, name):
        first = run(capsys, "decompose", fixture_path(name), "--format", "json")
        second = run(capsys, "decompose", fixture_path(name), "--format", "json")
        assert first == second


class TestHugeCounts:
    """Counts past CPython's 4,300-digit cap on int-to-str conversion."""

    @pytest.fixture(scope="class")
    def caterpillar_file(self, tmp_path_factory):
        # 3 leaves on each of 9,100 spine vertices: 3**9100 maximum matchings,
        # a number of 4,342 digits
        t = caterpillar(9_100, 3)
        p = tmp_path_factory.mktemp("huge") / "caterpillar.edges"
        p.write_text(tree_to_edge_text(t))
        return t, str(p)

    def test_invariants_json(self, capsys, caterpillar_file):
        _, path = caterpillar_file
        code, out, err = run(capsys, "invariants", path, "--format", "json")
        assert code == 0, err
        obj = json.loads(out, parse_int=Decimal)
        assert obj["max_matching_count"] == 3**9100
        assert obj["order"] == 36_400

    def test_invariants_text(self, capsys, caterpillar_file):
        _, path = caterpillar_file
        code, out, err = run(capsys, "invariants", path)
        assert code == 0, err
        line = next(s for s in out.splitlines() if s.startswith("max_matching_count: "))
        assert Decimal(line.split(": ")[1]) == 3**9100

    def test_check_tree(self, caterpillar_file):
        t, _ = caterpillar_file
        assert check_tree(t).ok
