from nonloclab.experiments import fit_rate
from nonloclab.reports import write_rate_csv


def test_rate_csv_writes_every_rung_with_its_fit_flag(tmp_path):
    pairs = [(0.2, 0.31), (0.1, 0.1 / 3), (0.05, 1e-300), (0.025, 7.5e-3)]
    table = fit_rate(pairs, included=[True, True, False, True])
    path = tmp_path / "rate.csv"
    write_rate_csv(path, table)
    assert path.read_text() == (
        "epsilon,error,included_in_fit\n"
        "0.20000000000000001,0.31,1\n"
        "0.10000000000000001,0.033333333333333333,1\n"
        "0.050000000000000003,1e-300,0\n"
        "0.025000000000000001,0.0074999999999999997,1\n"
    )
