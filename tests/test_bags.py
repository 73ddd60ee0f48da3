import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdam import bags
from tdam.errors import DataError, DegenerateError, FormatError, ParseError, TruncatedError


def make_bag(n=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return bags.FeatureBag(
        slide_id=f"S{seed}",
        features=rng.standard_normal((n, d)).astype(np.float32),
        coords=bags.grid_coords(n),
    )


def test_roundtrip_identity(tmp_path):
    bag = make_bag()
    path = tmp_path / "b.bag"
    bags.save_bag(bag, path)
    loaded = bags.load_bag(path)
    assert loaded.slide_id == bag.slide_id
    np.testing.assert_array_equal(loaded.features, bag.features)
    np.testing.assert_array_equal(loaded.coords, bag.coords)
    # byte-identical payload on re-save
    path2 = tmp_path / "b2.bag"
    bags.save_bag(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_roundtrip_property(tmp_path_factory, n, d, seed):
    bag = make_bag(n, d, seed)
    path = tmp_path_factory.mktemp("bags") / "x.bag"
    bags.save_bag(bag, path)
    loaded = bags.load_bag(path)
    np.testing.assert_array_equal(loaded.features, bag.features)
    np.testing.assert_array_equal(loaded.coords, bag.coords)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.bag"
    import struct

    payload = bags.BAG_MAGIC + struct.pack("<II", 2, 2) + np.zeros(3, "<f4").tobytes()
    path.write_bytes(payload)
    with pytest.raises(TruncatedError):
        bags.load_bag(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.bag"
    path.write_bytes(b"NOTABAG0" + b"\0" * 16)
    with pytest.raises(FormatError):
        bags.load_bag(path)


@pytest.mark.parametrize("text", [
    pytest.param("{oops", id="invalid-json"),
    pytest.param("[]", id="not-an-object"),
])
def test_corrupt_sidecar_rejected(tmp_path, text):
    path = tmp_path / "s.bag"
    bags.save_bag(make_bag(), path)
    sidecar = tmp_path / "s.bag.json"
    sidecar.write_text(text)
    with pytest.raises(FormatError, match=re.escape(str(sidecar))):
        bags.load_bag(path)


def test_nan_payload_rejected(tmp_path):
    bag = make_bag()
    bag.features[0, 0] = np.nan
    with pytest.raises(DataError):
        bags.save_bag(bag, tmp_path / "n.bag")


def test_coords_mismatch_rejected(tmp_path):
    bag = make_bag(n=3)
    bag.coords = bag.coords[:2]
    with pytest.raises(DataError):
        bags.save_bag(bag, tmp_path / "c.bag")


def test_synth_deterministic():
    a = bags.synth_cohort(12, (4, 9), d=6, seed=7)
    b = bags.synth_cohort(12, (4, 9), d=6, seed=7)
    assert [r.__dict__ for r in a.cohort.records] == [r.__dict__ for r in b.cohort.records]
    for pid in a.bags:
        np.testing.assert_array_equal(a.bags[pid].features, b.bags[pid].features)
        np.testing.assert_array_equal(a.bags[pid].coords, b.bags[pid].coords)
    c = bags.synth_cohort(12, (4, 9), d=6, seed=8)
    assert any(r.time != s.time for r, s in zip(a.cohort.records, c.cohort.records))


def test_synth_no_censoring_means_all_events():
    sc = bags.synth_cohort(15, (4, 6), d=4, censor_rate=0.0, seed=3)
    assert all(r.event == 1 for r in sc.cohort.records)


def test_synth_full_censoring_degenerate():
    with pytest.raises(DegenerateError):
        bags.synth_cohort(15, (4, 6), d=4, censor_rate=1.0, seed=3)


def test_synth_too_few_patients():
    with pytest.raises(DataError):
        bags.synth_cohort(5, (4, 6), d=4, seed=3)


def _rank(x):
    order = np.argsort(x)
    r = np.empty_like(order, dtype=float)
    r[order] = np.arange(len(x))
    return r


def test_signal_fraction_anticorrelates_with_time():
    # permutation oracle: higher planted signal fraction -> shorter survival
    sc = bags.synth_cohort(200, (8, 16), d=8, censor_rate=0.0, seed=11)
    s = np.array([r.covariates["signal_fraction"] for r in sc.cohort.records])
    t = sc.cohort.times()
    rs, rt = _rank(s), _rank(t)
    rs = (rs - rs.mean()) / rs.std()
    rt = (rt - rt.mean()) / rt.std()
    observed = float(np.mean(rs * rt))
    assert observed < 0
    rng = np.random.default_rng(0)
    hits = sum(float(np.mean(rs * rng.permutation(rt))) <= observed for _ in range(999))
    p = (1 + hits) / 1000
    assert p < 0.01


def test_generated_records_satisfy_invariants():
    sc = bags.synth_cohort(30, (4, 9), d=4, censor_rate=0.5, seed=5)
    sc.cohort.validate()
    assert all(r.time > 0 for r in sc.cohort.records)
    assert {r.event for r in sc.cohort.records} <= {0, 1}


COHORT_CSV = """patient_id,time,event,age
A,12.5,1,60
B,30.0,0,55
C,8.25,1,
"""


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(COHORT_CSV)
    cohort = bags.load_cohort_manifest(path)
    assert len(cohort) == 3
    assert cohort.records[0].time == 12.5
    assert cohort.records[2].covariates["age"] is None
    assert cohort.records[1].covariates["age"] == 55.0


def test_manifest_zero_time_excluded(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("patient_id,time,event\nA,0,1\nB,5,1\nC,-2.5,0\n")
    cohort = bags.load_cohort_manifest(path)
    assert [r.patient_id for r in cohort.records] == ["B"]


def test_manifest_bad_event(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("patient_id,time,event\nA,5,2\n")
    with pytest.raises(ParseError):
        bags.load_cohort_manifest(path)


def test_manifest_duplicate_id(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("patient_id,time,event\nA,5,1\nA,6,0\n")
    with pytest.raises(DataError):
        bags.load_cohort_manifest(path)


def test_manifest_non_numeric_time(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("patient_id,time,event\nA,soon,1\n")
    with pytest.raises(ParseError):
        bags.load_cohort_manifest(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_manifest_time_must_be_finite(tmp_path, cell):
    """A time that is not a finite number is malformed, not an exclusion; the
    error names the file, the line and the cell."""
    path = tmp_path / "cohort.csv"
    path.write_text(f"patient_id,time,event\nA,5,1\nB,{cell},0\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: column time has {cell!r}")):
        bags.load_cohort_manifest(path)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "abc"])
def test_manifest_covariate_must_be_finite(tmp_path, cell):
    """A covariate cell that is not missing must be a finite number; the error
    names the file, the line and the column."""
    path = tmp_path / "cohort.csv"
    path.write_text(f"patient_id,time,event,age\nA,5,1,60\nB,6,0,{cell}\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: column age has {cell!r}")):
        bags.load_cohort_manifest(path)


def test_cohort_csv_roundtrip(tmp_path):
    sc = bags.synth_cohort(12, (4, 6), d=4, seed=9)
    path = tmp_path / "c.csv"
    bags.write_cohort_csv(sc.cohort, path, header_comment="v0 seed=9")
    loaded = bags.load_cohort_manifest(path)
    assert len(loaded) == len(sc.cohort)
    for a, b in zip(loaded.records, sc.cohort.records):
        assert a.patient_id == b.patient_id
        assert a.time == b.time and a.event == b.event
