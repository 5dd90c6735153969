"""tools/op_hashes.py on the benchmark's tiny batches."""

import importlib.util
import json
import os
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("op_hashes",
                                               os.path.join(ROOT, "tools", "op_hashes.py"))
op_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_hashes)


def test_hashes_repeat_and_a_changed_result_is_listed(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "hashes.json"
    assert op_hashes.main(["--tiny", "--seeds", "1", "--out", str(out)]) == 0
    hashes = json.loads(out.read_text())
    assert sorted(hashes) == sorted(op_hashes.WORKLOADS)
    assert all(len(ops) > 5 for per_seed in hashes.values() for ops in per_seed.values())
    # a second run, in new temporary directories, hashes every result the same
    assert op_hashes.main(["--tiny", "--seeds", "1", "--against", str(out)]) == 0
    assert "0 of" in capsys.readouterr().out
    changed = next(op for op in hashes["cli"]["1"] if "verify" in op)
    hashes["cli"]["1"][changed] = "0" * 64
    (tmp_path / "changed.json").write_text(json.dumps(hashes))
    argv = ["--tiny", "--seeds", "1", "--workloads", "cli", "--against",
            str(tmp_path / "changed.json")]
    assert op_hashes.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"differs: cli/1/{changed}"
    assert time.perf_counter() - start < 5.0
