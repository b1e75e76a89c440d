"""Command-line entry points."""

import json

import pytest

from scatterfuzz import ConfigError
from scatterfuzz.cli import main


def test_fuzz_writes_campaign_dir(tmp_path, capsys):
    out = tmp_path / "camp"
    rc = main(["fuzz", "contract_ok", "--seed", "1", "--execs", "2000",
               "--out", str(out)])
    assert rc == 0
    assert (out / "stats.jsonl").exists()
    captured = capsys.readouterr().out
    assert "2000 executions" in captured


def test_fuzz_switches(tmp_path, capsys):
    rc = main(["fuzz", "nostr_bits", "--execs", "500", "--no-solver",
               "--no-color", "--no-lenfb"])
    assert rc == 0


def test_solve_one_shot(tmp_path, capsys):
    inp = tmp_path / "probe.bin"
    inp.write_bytes(b"wxyz")
    rc = main(["solve", "contract_ok", str(inp), "--cmp", "cmp_ok"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status: solved" in out
    assert "4f4b00" in out  # solved input starts with "OK\0"


def test_solve_unreached(tmp_path, capsys):
    inp = tmp_path / "probe.bin"
    inp.write_bytes(b"x")  # too short to reach the comparison
    rc = main(["solve", "contract_ok", str(inp), "--cmp", "cmp_ok"])
    assert rc == 1


@pytest.mark.parametrize("text", ['[{"solver": tru', '[{"solvr": false}]'])
def test_bench_rejects_malformed_matrix(tmp_path, text):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(text)
    with pytest.raises(ConfigError):
        main(["bench", "--trials", "1", "--matrix", str(matrix)])


@pytest.mark.parametrize("argv", [
    ["bench", "--trials", "1", "--matrix", "{tmp}/missing.json"],
    ["solve", "contract_ok", "{tmp}/missing.bin", "--cmp", "cmp_ok"],
    ["report", "{tmp}"],
])
def test_unreadable_files_raise_config_error(tmp_path, argv):
    """A missing or invalid file raises ConfigError naming its path."""
    (tmp_path / "summary.json").write_text('{"executions": ')
    argv = [a.format(tmp=tmp_path) for a in argv]
    with pytest.raises(ConfigError) as info:
        main(argv)
    path = next(a for a in argv if a.startswith(str(tmp_path)))
    assert path in str(info.value)


def test_bench_and_report(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(
        [{"solver": True, "execs": 1500}, {"solver": False, "execs": 1500}]))
    out = tmp_path / "bench"
    corpus_dir = None
    # Restrict to a fast subset by pointing --corpus at a trimmed copy.
    import shutil
    from scatterfuzz.corpus import bundled_dir
    src = bundled_dir()
    sub = tmp_path / "corpus"
    sub.mkdir()
    manifest = json.loads((src / "manifest.json").read_text())
    keep = [m for m in manifest if m["name"] in ("contract_ok", "nostr_bits")]
    for m in keep:
        shutil.copy(src / m["file"], sub / m["file"])
    (sub / "manifest.json").write_text(json.dumps(keep))
    rc = main(["bench", "--corpus", str(sub), "--trials", "2",
               "--matrix", str(matrix), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    capsys.readouterr()
    rc = main(["report", str(out)])
    assert rc == 0
    assert "contract_ok" in capsys.readouterr().out


def test_report_campaign_dir(tmp_path, capsys):
    out = tmp_path / "camp"
    main(["fuzz", "nostr_chain", "--execs", "500", "--out", str(out)])
    capsys.readouterr()
    rc = main(["report", str(out)])
    assert rc == 0
    assert "executions" in capsys.readouterr().out


def test_report_missing_dir(tmp_path, capsys):
    rc = main(["report", str(tmp_path)])
    assert rc == 1
