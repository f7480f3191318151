import pytest

from dtikit import datasets as ds


CSV = """drug_id,protein_id,smiles,sequence,label
D1,P1,CCO,MKVLAA,1
D2,P1,C1CC,MKVLAA,0
D3,P2,c1ccccc1,GGHHII,0
D4,P2,CCN,GGHHII,2
"""


def write(tmp_path, text):
    p = tmp_path / "data.csv"
    p.write_text(text)
    return p


def test_lenient_load_skips_bad_rows_with_line_numbers(tmp_path):
    result = ds.load_interactions_detailed(write(tmp_path, CSV))
    assert [r.drug_id for r in result.records] == ["D1", "D3"]
    assert [s.row for s in result.skipped] == [3, 5]
    assert "ring" in result.skipped[0].reason
    assert "binary" in result.skipped[1].reason


def test_missing_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(ds.MissingColumn):
        ds.load_interactions(path)


@pytest.mark.parametrize("dropped", ["drug_id", "protein_id"])
def test_id_columns_are_required(tmp_path, dropped):
    header = ["drug_id", "protein_id", "smiles", "sequence", "label"]
    cols = [c for c in header if c != dropped]
    row = {"drug_id": "D1", "protein_id": "P1", "smiles": "CCO", "sequence": "MKV", "label": "1"}
    text = ",".join(cols) + "\n" + ",".join(row[c] for c in cols) + "\n"
    with pytest.raises(ds.MissingColumn, match=dropped):
        ds.load_interactions(write(tmp_path, text))


def test_affinity_labels(tmp_path):
    text = "drug_id,protein_id,smiles,sequence,label\nD1,P1,CCO,MKV,6.42\n"
    schema = ds.CsvSchema(label_kind=ds.AFFINITY)
    result = ds.load_interactions_detailed(write(tmp_path, text), schema)
    assert result.records[0].label == pytest.approx(6.42)


def test_non_finite_affinities_are_skipped(tmp_path):
    text = "drug_id,protein_id,smiles,sequence,label\nD1,P1,CCO,MKV,nan\nD2,P1,CCN,MKV,inf\n"
    schema = ds.CsvSchema(label_kind=ds.AFFINITY)
    result = ds.load_interactions_detailed(write(tmp_path, text), schema)
    assert not result.records
    assert [s.row for s in result.skipped] == [2, 3]
    assert all("finite" in s.reason for s in result.skipped)


def test_oversized_molecule_rejected_at_load(tmp_path):
    text = "drug_id,protein_id,smiles,sequence,label\nD1,P1," + "C" * 291 + ",MKV,1\n"
    result = ds.load_interactions_detailed(write(tmp_path, text))
    assert not result.records
    assert "290" in result.skipped[0].reason


def test_each_distinct_smiles_is_parsed_once(tmp_path, monkeypatch):
    calls = []
    parse = ds.parse_smiles
    monkeypatch.setattr(ds, "parse_smiles", lambda s: calls.append(s) or parse(s))
    text = (
        "drug_id,protein_id,smiles,sequence,label\n"
        "D1,P1,CCO,MKV,1\n"  # 2
        "D2,P1,C1CC,MKV,0\n"  # 3: unclosed ring
        "D1,P2,CCO,AAA,0\n"  # 4
        "D2,P2,C1CC,AAA,1\n"  # 5: the same ring again
        "D3,P1,C(C,MKV,1\n"  # 6: unbalanced parenthesis
        "D2,P1,C1CC,MKV,1\n"  # 7: and the ring once more
        "D1,P1,CCO,MKV,2\n"  # 8: good SMILES, bad label
    )
    result = ds.load_interactions_detailed(write(tmp_path, text))
    assert sorted(calls) == sorted(["CCO", "C1CC", "C(C"])
    assert [r.drug_id for r in result.records] == ["D1", "D1"]
    assert [s.row for s in result.skipped] == [3, 5, 6, 7, 8]
    ring = result.skipped[0].reason
    assert "ring" in ring
    assert [s.reason for s in result.skipped[:4]] == [ring, ring, result.skipped[2].reason, ring]
    assert result.skipped[2].reason != ring


ID_CSV = """smiles,sequence,label,drug_id,protein_id
CCO,MKVLAA,1,D1,P1
CCO,ACDEFG,1
CCN,MKVLAA,0,,P1
CCN,MKVLAA,0,D1,P1
CCO,GGHHII,0,D1,P1
CCO,GGHHII,0,D2,P2
CCN,GGHHII,1,D3,P2
"""


def test_rows_with_a_missing_or_conflicting_id_are_skipped(tmp_path):
    """A short row, an empty id and an id already bound to another SMILES
    or sequence are skipped rows; two ids may share one structure."""
    result = ds.load_interactions_detailed(write(tmp_path, ID_CSV))
    assert [(r.drug_id, r.protein_id) for r in result.records] == [
        ("D1", "P1"), ("D2", "P2"), ("D3", "P2")
    ]
    assert [s.row for s in result.skipped] == [3, 4, 5, 6]
    reasons = [s.reason for s in result.skipped]
    assert "empty drug_id" in reasons[0] and "empty drug_id" in reasons[1]
    assert "'D1' already names 'CCO'" in reasons[2]
    assert "'P1' already names 'MKVLAA'" in reasons[3]


def test_first_loaded_row_binds_an_id(tmp_path):
    """A skipped row binds none of its ids: D1 first loads with CCN here."""
    text = ID_CSV.splitlines()[0] + "\nCCO,MKVLAA,1,D1,\nCCN,MKVLAA,1,D1,P1\nCCO,MKVLAA,0,D1,P1\n"
    result = ds.load_interactions_detailed(write(tmp_path, text))
    assert [r.smiles for r in result.records] == ["CCN"]
    assert [s.row for s in result.skipped] == [2, 4]
    assert "empty protein_id" in result.skipped[0].reason


def test_non_numeric_label_and_empty_sequence_are_skipped(tmp_path):
    text = ("drug_id,protein_id,smiles,sequence,label\n"
            "D1,P1,CCO,MKV,x\nD2,P2,CCN,,1\nD3,P1,CCC,MKV,1\n")
    result = ds.load_interactions_detailed(write(tmp_path, text))
    assert [r.drug_id for r in result.records] == ["D3"]
    assert [(s.row, s.reason) for s in result.skipped] == [
        (2, "label 'x' is not numeric"), (3, "empty protein sequence")]
