import hashlib
import json
import os
import statistics
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import atlas.cli
from atlas.cli import bundle_obj, canonical_json, load_bundle, main
from atlas.corpus import corpus_dir, eval_task_paths, training_task_paths
from atlas.domain import template_from_text, template_to_text
from atlas.transformers import matrix_from_obj

# The seed-0 bundle in the dense form, with an entry for every pair of
# templates: 25 entries, 20 of them empty.
DENSE_SEED0 = ("01e8feb8e63fa5deb0df93ad5b2c2a65e0fce59d98eb91aea27d869ae9af70df", 3882)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    tasks = [str(p) for p in training_task_paths()]
    assert main(["train", *tasks, "-o", str(out), "--seed", "0"]) == 0
    return out


def read(path: Path):
    return json.loads(path.read_text())


def edit_at(obj, path, change):
    """``obj`` with the value at ``path`` (keys and indices) replaced by
    ``change(value)``; the empty path replaces ``obj`` itself."""
    if not path:
        return change(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent[path[-1]])
    return obj


def synth_with_edited_entry(trained_dir, tmp_path, edit, inputs=("(len = c)", "(len = c)"), task="e1"):
    """Exit code of ``synth`` on ``task`` under the trained bundle with its
    entry for ``inputs`` changed by ``edit``."""
    obj = read(trained_dir / "bundle.json")
    entry = next(t for t in obj["transformers"] if t["inputs"] == list(inputs))
    edit(entry)
    bundle = tmp_path / "bad.json"
    bundle.write_text(json.dumps(obj))
    return main(["synth", str(corpus_dir() / f"{task}.json"), "--bundle", str(bundle)])


def schema(name: str) -> dict:
    return read(Path(__file__).parent.parent / f"src/atlas/schemas/{name}.schema.json")


def dense_bundle(obj: dict) -> dict:
    """The bundle ``obj`` in the older dense form: an entry for every pair of
    its templates, in order, with no outputs where ``obj`` has no entry."""
    stored = {tuple(t["inputs"]): t for t in obj["transformers"]}
    kinds = sorted(map(template_from_text, obj["templates"]))
    pairs = [tuple(map(template_to_text, pair)) for pair in product(kinds, repeat=2)]
    return dict(obj, transformers=[stored.get(p, {"inputs": list(p), "outputs": []}) for p in pairs])


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        assert (trained_dir / "bundle.json").exists()
        assert (trained_dir / "report.json").exists()
        assert (trained_dir / "timings.json").exists()

    def test_bundle_has_five_templates(self, trained_dir):
        bundle = read(trained_dir / "bundle.json")
        assert sorted(bundle["templates"]) == [
            "(char i != c)",
            "(char i = c)",
            "(len != c)",
            "(len = c)",
            "top",
        ]
        # Concat is the only construct learned: one entry per pair of input
        # templates that has outputs, 5 of the 25 pairs.
        assert len(bundle["transformers"]) == 5 and all(t["outputs"] for t in bundle["transformers"])
        assert len({tuple(t["inputs"]) for t in bundle["transformers"]}) == 5
        assert all(set(t) == {"inputs", "outputs"} for t in bundle["transformers"])
        entries = [e for t in bundle["transformers"] for o in t["outputs"] for row in o["matrix"] for e in row]
        assert entries and all(type(n) is int for n in entries)

    def test_training_on_e1_only(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", str(corpus_dir() / "e1.json"), "-o", str(out), "--seed", "0"]) == 0
        bundle = read(out / "bundle.json")
        assert {"top", "(len = c)", "(len != c)"} <= set(bundle["templates"])
        assert len(bundle["templates"]) >= 3

    def test_report_schema(self, trained_dir):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(read(trained_dir / "report.json"), schema("training_report"))

    def test_bundle_schema(self, trained_dir):
        jsonschema = pytest.importorskip("jsonschema")
        bundle = read(trained_dir / "bundle.json")
        jsonschema.validate(bundle, schema("bundle"))
        entry = next(t for t in bundle["transformers"] if t["outputs"])
        for value in ([1, 1], 0.5):
            entry["outputs"][0]["matrix"][0][0] = value
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bundle, schema("bundle"))

    def test_timings_schema(self, trained_dir):
        jsonschema = pytest.importorskip("jsonschema")
        timings = read(trained_dir / "timings.json")
        jsonschema.validate(timings, schema("timings"))
        del timings["problems"][0]["T_T_us"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(timings, schema("timings"))

    def test_timings_have_us_per_phase(self, trained_dir):
        # One time unit: microseconds.
        problems = read(trained_dir / "timings.json")["problems"]
        assert [p["problem"] for p in problems] == ["e1", "e2", "e3"]
        for p in problems:
            assert set(p) == {"problem", "T_AGS_us", "T_A_us", "T_T_us"}
            assert all(type(p[f"{phase}_us"]) is int for phase in ("T_AGS", "T_A", "T_T"))
        # e1 and e2 each refine their domain at least once.
        assert all(p["T_A_us"] > 0 for p in problems[:2])

    def test_bundle_round_trip_is_byte_identical(self, trained_dir, tmp_path):
        from atlas.cli import bundle_obj, canonical_json, load_bundle

        raw = (trained_dir / "bundle.json").read_bytes()
        templates, table, prov = load_bundle(trained_dir / "bundle.json")
        again = canonical_json(bundle_obj(templates, table, prov["seed"], prov["training_tasks"])).encode()
        assert raw == again


class TestOldBundle:
    """Bundles written before tables were normalized load as the normalized table."""

    def test_loads_normalized_and_solves_the_same(self, trained_dir, tmp_path):
        from atlas.cli import load_bundle
        from atlas.transformers import transformer_to_obj

        from conftest import entries_with_top_copies, entry_outputs, table_outputs
        from test_golden import expected, synthesize_all

        templates, table, prov = load_bundle(trained_dir / "bundle.json")
        old = read(trained_dir / "bundle.json")
        old_entries = entries_with_top_copies(table)
        old["transformers"] = [transformer_to_obj(t) for t in old_entries]
        assert len(entry_outputs(old_entries)) == len(table_outputs(table)) + 4
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))

        old_templates, loaded, _ = load_bundle(path)
        assert old_templates == templates
        assert [transformer_to_obj(t) for t in loaded.all()] == read(trained_dir / "bundle.json")["transformers"]
        want = expected("synth-bundle")
        assert synthesize_all(old_templates, loaded, want) == want

    def test_dense_bundle_loads_sparse_and_solves_the_same(self, trained_dir, tmp_path):
        from test_golden import expected, synthesize_all

        raw = (trained_dir / "bundle.json").read_bytes()
        dense = canonical_json(dense_bundle(json.loads(raw))).encode()
        assert (hashlib.sha256(dense).hexdigest(), len(dense)) == DENSE_SEED0
        entries = json.loads(dense)["transformers"]
        assert len(entries) == 25 and sum(1 for t in entries if not t["outputs"]) == 20
        path = tmp_path / "dense.json"
        path.write_bytes(dense)

        templates, table, prov = load_bundle(path)
        assert len(table) == 5
        assert canonical_json(bundle_obj(templates, table, prov["seed"], prov["training_tasks"])).encode() == raw
        want = expected("synth-bundle")
        assert synthesize_all(templates, table, want) == want

    @pytest.mark.parametrize(
        "edit",
        [lambda e: e.update(inputs=["bogus", "top"]), lambda e: e["inputs"].append("top")],
        ids=["unknown-template", "three-inputs"],
    )
    def test_dense_bundle_with_a_bad_empty_entry_format_error(self, trained_dir, tmp_path, capsys, edit):
        # Every entry is checked before the empty ones are dropped.
        obj = dense_bundle(read(trained_dir / "bundle.json"))
        edit(next(t for t in obj["transformers"] if not t["outputs"]))
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps(obj))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
        assert "malformed bundle" in capsys.readouterr().err


    def test_bundle_with_pair_matrices_format_error(self, trained_dir, tmp_path, capsys):
        # Bundles once wrote each matrix entry n as [n, 1] and tagged each entry "op": "concat".
        obj = read(trained_dir / "bundle.json")
        for t in obj["transformers"]:
            t["op"] = "concat"
            for o in t["outputs"]:
                o["matrix"] = [[[n, 1] for n in row] for row in o["matrix"]]
        for old in (obj, dense_bundle(obj)):
            bundle = tmp_path / "old.json"
            bundle.write_text(json.dumps(old))
            assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
            err = capsys.readouterr().err
            assert "malformed bundle (matrix entry [1, 1] is not an integer)" in err
            assert "Traceback" not in err


class TestSynth:
    def test_solves_task_with_bundle(self, trained_dir, capsys):
        code = main([
            "synth", str(corpus_dir() / "eval_dirname.json"), "--bundle", str(trained_dir / "bundle.json"),
        ])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("(substr")

    def test_baseline_top_flag(self, trained_dir, capsys):
        code = main(["synth", str(corpus_dir() / "eval_backup.json"), "--baseline-top"])
        assert code == 0

    def test_log_file(self, trained_dir, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        log = tmp_path / "log.jsonl"
        main([
            "synth", str(corpus_dir() / "eval_csv_last.json"),
            "--bundle", str(trained_dir / "bundle.json"), "--log", str(log),
        ])
        entry = json.loads(log.read_text().splitlines()[0])
        schema = read(Path(__file__).parent.parent / "src/atlas/schemas/run_log.schema.json")
        jsonschema.validate(entry, schema)
        assert entry["correct"] is True
        # One time unit: microseconds.
        assert isinstance(entry["wall_us"], int) and "wall_ms" not in entry

    def test_unsolvable_exits_one(self, trained_dir, tmp_path):
        task = tmp_path / "bad.json"
        task.write_text(json.dumps({
            "name": "bad",
            "examples": [{"input": "ab", "output": "QRSTUVWXYZ123"}],
        }))
        code = main([
            "synth", str(task), "--bundle", str(trained_dir / "bundle.json"),
            "--max-size", "3", "--max-candidates", "5000",
        ])
        assert code == 1

    def test_requires_bundle_or_baseline(self, tmp_path):
        code = main(["synth", str(corpus_dir() / "eval_backup.json")])
        assert code == 3


class TestBench:
    def test_small_sweep(self, trained_dir, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("eval_quote.json", "eval_dirname.json", "eval_backup.json"):
            (corpus / name).write_text((corpus_dir() / name).read_text())
        out = tmp_path / "bench"
        code = main(["bench", str(corpus), "--bundle", str(trained_dir / "bundle.json"), "-o", str(out)])
        assert code == 0
        report = read(out / "bench_report.json")
        schema = read(Path(__file__).parent.parent / "src/atlas/schemas/bench_report.schema.json")
        jsonschema.validate(report, schema)
        assert report["aggregate"]["solved_bundle"] == 3
        assert report["aggregate"]["solved_bundle"] >= report["aggregate"]["solved_baseline"]
        assert (out / "bench_log.jsonl").exists()
        common = [r for r in report["tasks"] if r["ratio"] is not None]
        assert report["aggregate"]["commonly_solved"] == len(common) > 0
        for r in common:
            assert r["wall_ratio"] == r["baseline"]["wall_us"] / max(1, r["bundle"]["wall_us"])
        assert report["aggregate"]["median_wall_ratio"] > 0
        log = [json.loads(line) for line in (out / "bench_log.jsonl").read_text().splitlines()]
        log_schema = read(Path(__file__).parent.parent / "src/atlas/schemas/run_log.schema.json")
        assert len(log) == 6
        for entry in log:
            jsonschema.validate(entry, log_schema)
            assert "wall_us" in entry

    def test_training_tasks_left_out_of_the_aggregate(self, trained_dir, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")

        def bench(names, label):
            corpus = tmp_path / label
            corpus.mkdir()
            for name in names:
                (corpus / f"{name}.json").write_text((corpus_dir() / f"{name}.json").read_text())
            out = tmp_path / f"{label}-out"
            assert main(["bench", str(corpus), "--bundle", str(trained_dir / "bundle.json"), "-o", str(out)]) == 0
            report = read(out / "bench_report.json")
            jsonschema.validate(report, schema("bench_report"))
            return report, capsys.readouterr().out

        with_e1, printed = bench(["e1", "eval_backup", "eval_quote"], "with-e1")
        held_out, _ = bench(["eval_backup", "eval_quote"], "held-out")
        assert [(r["task"], r["training"]) for r in with_e1["tasks"]] == [
            ("e1", True), ("eval_backup", False), ("eval_quote", False),
        ]
        # Wall ratios are timings, so they are checked against the rows of the same run.
        aggregate = dict(with_e1["aggregate"])
        wall_ratios = [r["wall_ratio"] for r in with_e1["tasks"] if not r["training"]]
        assert aggregate.pop("median_wall_ratio") == statistics.median(wall_ratios)
        del held_out["aggregate"]["median_wall_ratio"]
        assert aggregate == held_out["aggregate"]
        # The training task is printed apart, after the held-out summary.
        summary, training = printed.split("\nsolved: ")[1].split("\n", 1)
        assert summary.startswith("bundle 2/2, baseline 2/2")
        assert training.startswith("the bundle's training tasks") and "\ne1 " in training

    def test_empty_corpus(self, trained_dir, tmp_path):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        out = tmp_path / "bench"
        assert main(["bench", str(corpus), "--bundle", str(trained_dir / "bundle.json"), "-o", str(out)]) == 0
        assert read(out / "bench_report.json")["aggregate"]["tasks"] == 0

    def test_a_row_solved_by_its_first_candidate(self, trained_dir, tmp_path):
        # The input is the answer, so both modes enumerate one candidate,
        # and the row's ratio is 1 / 1, not 1 over some floor above it.
        corpus = tmp_path / "identity"
        corpus.mkdir()
        (corpus / "identity.json").write_text(json.dumps({"name": "identity", "examples": [{"input": "abc", "output": "abc"}]}))
        out = tmp_path / "bench"
        assert main(["bench", str(corpus), "--bundle", str(trained_dir / "bundle.json"), "-o", str(out)]) == 0
        (row,) = read(out / "bench_report.json")["tasks"]
        assert row["bundle"]["enumerated"] == row["baseline"]["enumerated"] == 1
        assert row["ratio"] == 1.0


# ``atlas dump-itp`` on e1.json, in full: the first example each program
# fails is interpolated, and (cpos 83 1) cannot run on "CAV", so its dump is
# of "SAS".
E1_DUMPS = {
    '(concat (input) (const "18"))': """\
root | v1 = 'CAV2018' | 'CAV2018' | false
v1 | v1 = concat(x, v3) | 'CAV18' | (len != 7)
x | x = 'CAV' | 'CAV' | (len = 3)
v3 | v3 = '18' | '18' | (len = 2)
""",
    "(substr (input) (abspos 0) (cpos 83 1))": """\
root | v1 = 'SAS2018' | 'SAS2018' | false
v1 | v1 = substr(x, v3, v4) | 'S' | (len != 7)
x | x = 'SAS' | 'SAS' | true
v3 | v3 = 0 | 0 | true
v4 | v4 = 1 | 1 | true
""",
    '(concat (substr (input) (abspos 0) (abspos 2)) (const "x"))': """\
root | v1 = 'CAV2018' | 'CAV2018' | false
v1 | v1 = concat(v2, v6) | 'CAx' | (len != 7)
v2 | v2 = substr(x, v4, v5) | 'CA' | (len = 2)
x | x = 'CAV' | 'CAV' | true
v4 | v4 = 0 | 0 | true
v5 | v5 = 2 | 2 | true
v6 | v6 = 'x' | 'x' | (len = 1)
""",
}


class TestDumpItp:
    @pytest.mark.parametrize("program", E1_DUMPS)
    def test_golden_dump(self, capsys, program):
        assert main(["dump-itp", str(corpus_dir() / "e1.json"), "--program", program]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (E1_DUMPS[program], "")

    def test_dump_format(self, capsys):
        code = main([
            "dump-itp", str(corpus_dir() / "e1.json"),
            "--program", '(concat (input) (const "18"))',
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any("(len != 7)" in line for line in lines)
        assert all(len(line.split(" | ")) == 4 for line in lines)

    def test_correct_program_message(self, capsys):
        code = main([
            "dump-itp", str(corpus_dir() / "e1.json"),
            "--program", '(concat (input) (const "2018"))',
        ])
        assert code == 0
        assert "nothing to refute" in capsys.readouterr().err

    def test_bad_program_usage_error(self):
        assert main(["dump-itp", str(corpus_dir() / "e1.json"), "--program", "(concat"]) == 3

    @pytest.mark.parametrize(
        "program, message",
        [
            ("(cpos 65 0)", "occurrence index must be nonzero"),
            ("(substr (input) (abspos 0) (cpos 99999999 1))", "code 99999999 is not a code point"),
            ("(substr (input) (abspos 0) (cpos -5 1))", "code -5 is not a code point"),
            ("(concat " * 450 + "(input)" + " (input))" * 450, "nests too deeply"),
        ],
        ids=["cpos-zero", "cpos-past-unicode", "cpos-negative", "concat-450-deep"],
    )
    def test_malformed_program_usage_error(self, capsys, program, message):
        assert main(["dump-itp", str(corpus_dir() / "e1.json"), "--program", program]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad program: ") and message in err
        assert "Traceback" not in err

    def test_program_300_deep_runs(self, capsys):
        program = "(concat " * 300 + "(input)" + " (input))" * 300
        assert main(["dump-itp", str(corpus_dir() / "e1.json"), "--program", program]) == 0
        assert capsys.readouterr().out.startswith("root | ")

    def test_program_failing_on_every_example(self, capsys):
        code = main([
            "dump-itp", str(corpus_dir() / "e1.json"),
            "--program", "(substr (input) (abspos 5) (abspos 9))",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "nothing to refute" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--max-size", "--max-candidates", "--timeout-ms"])
    def test_search_bound_usage_error(self, flag):
        # No search runs, so there is no bound to set.
        argv = ["dump-itp", str(corpus_dir() / "e1.json"), "--program", '(concat (input) (const "18"))', flag, "5"]
        assert main(argv) == 3

    def test_skips_examples_the_program_fails_on(self, tmp_path, capsys):
        task = tmp_path / "t.json"
        task.write_text(json.dumps({
            "examples": [{"input": "ab", "output": "x"}, {"input": "abcdef", "output": "y"}],
        }))
        assert main(["dump-itp", str(task), "--program", "(substr (input) (abspos 3) (abspos 4))"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(" | 'abcdef' | " in line for line in lines)
        assert any(" | 'd' | " in line for line in lines)
        assert not any(" | 'ab' | " in line for line in lines)


class TestExitCodes:
    def test_missing_file_io_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "nope.json"), "--baseline-top"]) == 4

    @pytest.mark.parametrize("which", ["task", "bundle"])
    @pytest.mark.parametrize(
        "data", [b"\xff\xfe{", b"1" * 5000, b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "long-integer", "deep"]
    )
    def test_undecodable_json_format_error(self, tmp_path, capsys, which, data):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        argv = {
            "task": ["synth", str(bad), "--baseline-top"],
            "bundle": ["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bad)],
        }[which]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "obj, command",
        [
            ({"examples": [{"input": "a", "output": "\ud800"}]}, "synth"),
            ({"examples": [{"input": "a", "output": "a!"}], "literals": ["\ud800"]}, "synth"),
            ({"examples": [{"input": "a", "output": "a!"}], "name": "\ud800"}, "train"),
        ],
        ids=["output", "literal", "name"],
    )
    def test_lone_surrogate_task_format_error(self, tmp_path, capsys, obj, command):
        # Valid JSON that loads, but the program or the bundle could not be printed or written.
        task = tmp_path / "bad.json"
        task.write_text(json.dumps(obj))  # ASCII, with the surrogate as an escape
        argv = {"synth": ["synth", str(task), "--baseline-top"], "train": ["train", str(task), "-o", str(tmp_path / "o")]}
        assert main(argv[command]) == 4
        err = capsys.readouterr().err
        assert "task strings must be valid Unicode" in err and "Traceback" not in err

    def test_unknown_command_usage(self):
        assert main(["frobnicate"]) == 3

    def test_bundle_with_unknown_template_format_error(self, tmp_path):
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps({"templates": ["bogus"], "transformers": []}))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4

    @pytest.mark.parametrize("value", [0.5, True], ids=["fraction", "bool-num"])
    def test_bundle_with_fractional_matrix_entry_format_error(self, trained_dir, tmp_path, capsys, value):
        obj = read(trained_dir / "bundle.json")
        entry = next(t for t in obj["transformers"] if t["outputs"])
        entry["outputs"][0]["matrix"][0][0] = value
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps(obj))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
        assert "Traceback" not in capsys.readouterr().err
        # Rejected as an entry, not only when the changed matrix fails the validity check.
        with pytest.raises(ValueError, match="not an integer"):
            matrix_from_obj([[value]])

    def test_bundle_with_three_input_templates_format_error(self, trained_dir, tmp_path):
        assert synth_with_edited_entry(trained_dir, tmp_path, lambda e: e["inputs"].append("top")) == 4

    def test_bundle_with_extra_matrix_row_format_error(self, trained_dir, tmp_path):
        def edit(entry):
            matrix = entry["outputs"][0]["matrix"]
            matrix.append(matrix[0])

        assert synth_with_edited_entry(trained_dir, tmp_path, edit) == 4

    def test_bundle_without_constant_column_format_error(self, trained_dir, tmp_path):
        assert synth_with_edited_entry(trained_dir, tmp_path, lambda e: e["outputs"][0]["matrix"][0].pop()) == 4

    @pytest.mark.parametrize(
        "inputs, row, text",
        [
            # len(a + b) = len(a): this used to load and prune eval_backup's answer.
            (("(len = c)", "(len = c)"), [1, 0, 0], "(len = c),(len = c) -> (len = c) with matrix [[1, 0, 0]]"),
            # len(a + b) != x + y - 40: fails at y = 40.
            (("(len != c)", "(len = c)"), [1, 1, -40], "(len != c),(len = c) -> (len != c) with matrix [[1, 1, -40]]"),
        ],
        ids=["len-eq-projection", "len-neq-offset"],
    )
    def test_bundle_with_refuted_matrix_format_error(self, trained_dir, tmp_path, capsys, inputs, row, text):
        def edit(entry):
            entry["outputs"][0]["matrix"] = [row]

        assert synth_with_edited_entry(trained_dir, tmp_path, edit, inputs, task="eval_backup") == 4
        err = capsys.readouterr().err
        assert f"refuted transformer {text}" in err
        assert "Traceback" not in err

    def test_found_bundle_names_the_failing_instantiation(self, trained_dir, tmp_path, capsys):
        # len(a + b) != 3 len(a) + len(b) - 10 holds at every length of a but 5;
        # it used to load and prune correct programs.
        def edit(entry):
            entry["outputs"].append({"template": "(len != c)", "matrix": [[3, 1, -10]]})

        assert synth_with_edited_entry(trained_dir, tmp_path, edit) == 4
        err = capsys.readouterr().err
        refuted = "refuted transformer (len = c),(len = c) -> (len != c) with matrix [[3, 1, -10]]"
        assert f"{refuted}: fails at (len = 5),(len = 0) -> (len != 5)" in err
        assert "Traceback" not in err

    def test_bundle_with_char_neq_output_format_error(self, tmp_path, capsys):
        # (char i = c),top -> (char i != c) with [[1, 0, 0], [0, 0, 0]] says a[i] is
        # not U+0000, which is unsound: it used to load and prune this task's answer.
        copy = {"template": "(char i = c)", "matrix": [[1, 0, 0], [0, 1, 0]]}
        neq = {"template": "(char i != c)", "matrix": [[1, 0, 0], [0, 0, 0]]}
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"examples": [{"input": "\0x", "output": "\0xy"}, {"input": "\0ab", "output": "\0aby"}]}))
        exits = []
        for outputs in ([copy, neq], [copy]):
            entry = {"inputs": ["(char i = c)", "top"], "outputs": outputs}
            bundle = tmp_path / "bundle.json"
            bundle.write_text(json.dumps({"templates": ["(char i != c)", "(char i = c)", "top"], "transformers": [entry]}))
            exits.append(main(["synth", str(task), "--bundle", str(bundle)]))
        assert exits == [4, 0]
        out, err = capsys.readouterr()
        assert "malformed bundle (transformer (char i = c),top has a (char i != c) output)" in err
        assert "Traceback" not in err
        assert '(concat (input) (const "y"))' in out

    def test_bundle_entry_outside_its_templates_format_error(self, tmp_path, capsys):
        # A sound entry that can never fire: no state of an all-top domain has a character fact.
        pin = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
        entry = {
            "inputs": ["(char i = c)", "(char i = c)"],
            "outputs": [{"template": "(char i = c)", "matrix": pin}],
        }
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps({"templates": ["top"], "transformers": [entry]}))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
        err = capsys.readouterr().err
        assert "(char i = c),(char i = c) names a template the bundle does not have" in err
        assert "Traceback" not in err

    def test_bundle_with_top_output_format_error(self, trained_dir, tmp_path, capsys):
        def edit(entry):
            entry["outputs"].append({"template": "top", "matrix": []})

        assert synth_with_edited_entry(trained_dir, tmp_path, edit) == 4
        err = capsys.readouterr().err
        assert "(len = c),(len = c) has a top output" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("empty", [False, True], ids=["copy", "empty-copy"])
    def test_bundle_with_duplicate_entry_format_error(self, trained_dir, tmp_path, capsys, empty):
        # Loaded last, an empty copy would delete the sound entry before it.
        obj = read(trained_dir / "bundle.json")
        entry = next(t for t in obj["transformers"] if t["inputs"] == ["(len = c)", "(len = c)"])
        obj["transformers"].append(dict(entry, outputs=[]) if empty else entry)
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps(obj))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
        err = capsys.readouterr().err
        assert "malformed bundle (transformer (len = c),(len = c) is listed twice)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path, change",
        [
            ((), lambda _: {"templates": {}, "transformers": {}, "provenance": {}}),
            (("templates",), dict.fromkeys),
            (("transformers",), lambda _: {}),
            (("transformers", 0, "inputs"), dict.fromkeys),
            (("transformers", 0, "outputs"), lambda _: {}),
            (("transformers", 0, "outputs", 0, "matrix"), lambda _: {}),
            (("transformers", 0, "outputs", 0, "matrix", 0), lambda _: {}),
        ],
        ids=["all-objects", "templates", "transformers", "inputs", "outputs", "matrix", "matrix-row"],
    )
    def test_bundle_with_an_object_for_an_array_format_error(self, trained_dir, tmp_path, capsys, path, change):
        # Iterated, an object would read as its keys: an empty table, or an entry dropped.
        obj = edit_at(read(trained_dir / "bundle.json"), path, change)
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps(obj))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
        err = capsys.readouterr().err
        assert "malformed bundle" in err and "must be an array, not dict" in err
        assert "Traceback" not in err

    def test_bundle_with_repeated_template_format_error(self, trained_dir, tmp_path, capsys):
        obj = read(trained_dir / "bundle.json")
        obj["templates"].append("(len = c)")
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps(obj))
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", str(bundle)]) == 4
        err = capsys.readouterr().err
        assert "malformed bundle (template (len = c) is listed twice)" in err
        assert "Traceback" not in err

    def test_infeasible_training_task_diagnostic_exit(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        task = tmp_path / "far.json"
        task.write_text(json.dumps({"name": "far", "examples": [{"input": "abc", "output": "qwertyuiopzz"}]}))
        out = tmp_path / "o"
        # No program of size 1 maps "abc" to the output, so training reports it.
        assert main(["train", str(task), "-o", str(out), "--max-size", "1"]) == 2
        report = read(out / "report.json")
        jsonschema.validate(report, schema("training_report"))
        assert [p["diagnostic"] for p in report["problems"]] == ["InfeasibleProblem"]

    def test_train_without_tasks_usage_error(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "-o", str(out)]) == 3
        assert not out.exists()

    def test_non_string_example_format_error(self, tmp_path):
        task = tmp_path / "bad.json"
        task.write_text(json.dumps({"examples": [{"input": 5, "output": "5!"}]}))
        assert main(["synth", str(task), "--baseline-top"]) == 4

    @pytest.mark.parametrize("name", [["x"], 7], ids=["list", "int"])
    def test_non_string_task_name_format_error(self, trained_dir, tmp_path, capsys, name):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        task = corpus / "bad.json"
        task.write_text(json.dumps({"name": name, "examples": [{"input": "a", "output": "a!"}]}))
        assert main(["synth", str(task), "--baseline-top"]) == 4
        out = tmp_path / "bench"
        assert main(["bench", str(corpus), "--bundle", str(trained_dir / "bundle.json"), "-o", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        [row] = read(out / "bench_report.json")["tasks"]
        assert row["task"] == "bad" and "task name must be a string" in row["error"]

    @pytest.mark.parametrize("literals", ["!?", {"!": 1, "?": 2}], ids=["string", "dict"])
    def test_non_list_literals_format_error(self, trained_dir, tmp_path, capsys, literals):
        # A string or a dict would load as its characters or its keys.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        task = corpus / "bad.json"
        task.write_text(json.dumps({"literals": literals, "examples": [{"input": "a", "output": "a!"}]}))
        assert main(["synth", str(task), "--baseline-top"]) == 4
        out = tmp_path / "bench"
        assert main(["bench", str(corpus), "--bundle", str(trained_dir / "bundle.json"), "-o", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        [row] = read(out / "bench_report.json")["tasks"]
        assert row["task"] == "bad" and "literals must be a list of strings" in row["error"]

    @pytest.mark.parametrize("command", ["train", "bench", "synth-log"])
    def test_output_write_error_format_error(self, trained_dir, tmp_path, monkeypatch, command):
        # An existing file where an output directory goes, or a log in a missing directory.
        taken = tmp_path / "taken"
        taken.write_text("")
        e1 = str(corpus_dir() / "e1.json")
        argv = {
            "train": ["train", e1, "-o", str(taken)],
            "bench": ["bench", str(corpus_dir()), "--bundle", str(trained_dir / "bundle.json"), "-o", str(taken)],
            "synth-log": ["synth", e1, "--baseline-top", "--log", str(tmp_path / "missing" / "x.log")],
        }[command]
        # Every command checks its output before any work.
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output was checked")

        monkeypatch.setattr(atlas.cli, "learn_abstractions", no_work)
        monkeypatch.setattr(atlas.cli, "Synthesizer", no_work)
        assert main(argv) == 4
        assert taken.read_text() == "" and not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "provenance", [[], {"training_tasks": "e1"}, {"training_tasks": [{}]}], ids=["list", "string", "dict-item"]
    )
    def test_bundle_with_malformed_provenance_format_error(self, trained_dir, tmp_path, capsys, provenance):
        obj = read(trained_dir / "bundle.json")
        obj["provenance"] = provenance
        bundle = tmp_path / "bad.json"
        bundle.write_text(json.dumps(obj))
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", str(empty), "--bundle", str(bundle), "-o", str(tmp_path / "out")]) == 4
        assert "malformed bundle" in capsys.readouterr().err

    def test_negative_max_size_usage_error(self):
        assert main(["synth", str(corpus_dir() / "e1.json"), "--baseline-top", "--max-size", "-3"]) == 3

    def test_zero_max_candidates_usage_error(self):
        assert main(["synth", str(corpus_dir() / "e1.json"), "--baseline-top", "--max-candidates", "0"]) == 3

    def test_negative_timeout_usage_error(self):
        assert main(["synth", str(corpus_dir() / "e1.json"), "--baseline-top", "--timeout-ms", "-5"]) == 3

    def test_zero_timeout_usage_error(self):
        assert main(["synth", str(corpus_dir() / "e1.json"), "--baseline-top", "--timeout-ms", "0"]) == 3

    def test_bundle_and_baseline_top_usage_error(self, trained_dir):
        bundle = str(trained_dir / "bundle.json")
        assert main(["synth", str(corpus_dir() / "e1.json"), "--bundle", bundle, "--baseline-top"]) == 3

    def test_removed_validity_samples_flag_usage_error(self, tmp_path):
        e1 = str(corpus_dir() / "e1.json")
        assert main(["train", e1, "-o", str(tmp_path / "o"), "--validity-samples", "10"]) == 3


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        tasks = [str(p) for p in training_task_paths()]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", *tasks, "-o", str(a), "--seed", "7"]) == 0
        assert main(["train", *tasks, "-o", str(b), "--seed", "7"]) == 0
        assert (a / "bundle.json").read_bytes() == (b / "bundle.json").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_byte_identical_across_hash_seeds(self, tmp_path):
        # Train on e1-e3, then synthesize every corpus task under that bundle,
        # in a fresh interpreter for each PYTHONHASHSEED.
        script = (
            "import sys\n"
            "from atlas.cli import main\n"
            "from atlas.corpus import corpus_dir, training_task_paths\n"
            "out = sys.argv[1]\n"
            "assert main(['train', *map(str, training_task_paths()), '-o', out]) == 0\n"
            "for task in sorted(corpus_dir().glob('*.json')):\n"
            "    main(['synth', str(task), '--bundle', out + '/bundle.json', '--log', out + '/synth.log'])\n"
        )
        src = str(Path(atlas.cli.__file__).parent.parent)
        runs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / hash_seed
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, capture_output=True)
            log = [json.loads(line) for line in (out / "synth.log").read_text().splitlines()]
            for entry in log:
                del entry["wall_us"]  # the one field that may differ
            runs.append(((out / "bundle.json").read_bytes(), (out / "report.json").read_bytes(), log))
        assert len(runs[0][2]) == len(list(corpus_dir().glob("*.json")))
        assert runs[0] == runs[1]


def test_corpus_is_complete():
    assert len(training_task_paths()) == 3
    assert len(eval_task_paths()) >= 12
    for p in training_task_paths() + eval_task_paths():
        obj = json.loads(p.read_text())
        assert obj["examples"]
