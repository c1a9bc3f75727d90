"""The benchmark's traced run replaces library names by timing wrappers; each
name it wraps must still exist, so a rename fails here and not only there."""

import importlib.util
from pathlib import Path

from biquandles import cli
from biquandles.finite import finite_alexander_biquandle

TRACED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    traced = load_traced()
    assert traced.TRACED
    for owner, attr, span, _ in traced.TRACED:
        assert hasattr(owner, attr), f"{span}: {owner.__name__}.{attr} is gone"


def test_traced_run_matches_cli_and_records_counts(tmp_path, capsys):
    """The hooks read fields of the layers' results (matrix shape, relation
    rows, table size, axiom checks); one small item per traced path runs
    them and compares the traced run with plain ``cli.main``."""
    traced = load_traced()
    word = "n=3; s1 v2 -s1 v1"
    assert cli.main(["present", "--braid", word]) == 0
    presentation = tmp_path / "word.bq"
    presentation.write_text(capsys.readouterr().out)
    tables = tmp_path / "alexander.tables"
    tables.write_text(finite_alexander_biquandle(5, 2, 3).render_tables())
    commands = [
        ["gap", "--braid", word],
        ["present", "--braid", word],
        ["gap", "--presentation", str(presentation)],
        ["qcheck", "--presentation", str(presentation), "--prime", "3"],
        ["axioms", "--tables", str(tables)],
        ["axioms", "--quaternionic", "3"],
    ]
    rec = traced.Recorder()
    for item, argv in enumerate(commands):
        code = cli.main(argv)
        untraced = (code, capsys.readouterr().out)
        rec.begin_item(item)
        assert rec.main(argv) == untraced, argv
        rec.end_item(0.0)
    assert not rec.errors
    for name in ("alexander.matrix_cells", "quaternion.rank_rows", "finite.cells", "terms.rendered_bytes"):
        assert rec.counts[name] > 0, name


def test_braid_matrix_is_traced_once():
    """``relation_matrix_from_braid`` builds its rows without the public
    ``relation_matrix_from_presentation``, so a traced ``gap --braid`` item
    counts one relation matrix, not two."""
    traced = load_traced()
    rec = traced.Recorder()
    rec.begin_item(0)
    assert rec.main(["gap", "--braid", "n=3; s1 v2 -s1 v1"])[0] == 0
    rec.end_item(0.0)
    assert rec.calls["alexander.relation_matrix_from_braid"] == 1
    assert rec.calls["alexander.relation_matrix_from_presentation"] == 0
