import pytest

from mrlab import dataio
from mrlab.errors import RowParseError


@pytest.mark.parametrize("body, read, message", [
    ("1,2\n3\n", "matrix", "row 3: expected 2 fields, got 1"),
    ("1,2\n3,x\n", "matrix", "row 3: bad numeric value 'x' in column 'b'"),
    ("1,2\n3,inf\n", "matrix", "row 3: non-finite value"),
    ("1,2\n3,4,5\n", "table", "row 3: expected 2 fields, got 3"),
    ("x,2\n", "table", "row 2: bad numeric value 'x' in column 'a'"),
    ("nan,1\n", "table", "row 2: non-finite feature value"),
    ("1,2\n3, lo \n", "table", "row 3: bad numeric label 'lo'"),
    ("1,lo\n2,x\n", "table", "row 2: bad numeric label 'lo'"),
], ids=["matrix-fields", "matrix-value", "matrix-finite", "table-fields",
        "table-value", "table-finite", "table-label", "table-first-row"])
def test_numeric_readers_name_the_row(tmp_path, body, read, message):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n" + body, encoding="utf-8")
    with pytest.raises(RowParseError) as exc:
        if read == "matrix":
            dataio.read_matrix(path)
        else:
            dataio.read_table(path, "b")
    assert str(exc.value) == message


def test_csv_rows_carry_the_line_each_record_starts_on(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('a,b\n"x\ny",1\n\n2,"3\n\n4"\n5,6\n', encoding="utf-8")
    header, rows, lines = dataio.read_csv_rows(path)
    assert header == ["a", "b"]
    assert rows == [["x\ny", "1"], [], ["2", "3\n\n4"], ["5", "6"]]
    assert lines == [2, 4, 5, 8]
