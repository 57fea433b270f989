import golden


def test_cli_output_matches_the_golden_corpus(tmp_path, monkeypatch):
    golden.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    want = golden.read()
    # 14 surfaces with a ledger, 105 pairs with a, b >= 1 and a + b <= 15, two formats.
    assert len(golden.report_box()) == 14 * 105 * 2
    got = golden.corpus_lines()
    assert [w.split("\t")[0] for w in want] == [g.split("\t")[0] for g in got], \
        "the corpus argvs changed; regenerate with python tests/golden.py --write"
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert not changed, (f"{len(changed)} of {len(want)} lines differ from "
                         f"{golden.GOLDEN.name}; first, expected then got: {changed[0]}")
